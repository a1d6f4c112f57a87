"""Trust-kernel performance sweep (``BENCH_trust.json``).

The machinery behind ``repro-trms bench trust`` and
``benchmarks/bench_trust_kernel.py``.  It times three things on growing
entity populations whose opinion values follow the Table-6 OTL
distribution (Section 5.3's uniform [1, 5] offered levels — the Hi/Hi
scheduling workload's trust plane):

* the scalar ``TrustEngine.gamma`` double loop (the oracle) against the
  batched ``TrustEngine.gamma_matrix`` kernel, per-row;
* a *wholesale* re-evaluation — every Grid domain mutated, so every shard
  of the columnar mirror rebuilds and every memoised Γ sub-row recomputes;
* a *dirty-shard* re-evaluation — a single domain mutated, so exactly one
  shard rebuilds and only that domain's Γ sub-rows recompute while the
  other shards' rows are served from the epoch-keyed memo;
* a *delta checkpoint* — ``DIRTY_ENTITY_RATIO`` of the entities mutated
  through an attached write-ahead journal, then a journal-tail fsync
  (:meth:`~repro.core.journal.DurableTrustPlane.checkpoint`, O(changes))
  against a full :func:`~repro.core.store.snapshot_trust_store` rewrite
  (O(store)).

The comparison is honest about its caps, and the payload records them:

* the scalar reference walks the trustee's domain bucket (about
  1/``n_shards`` of the table) once per ``gamma`` call, so a full surface
  is still cubic in the entity count; it runs only at sizes up to
  ``SCALAR_CAP`` and is timed on ``reference_rows`` truster rows;
* above ``SCALAR_CAP`` the batched/wholesale/dirty surfaces are evaluated
  on ``LARGE_TRUSTER_ROWS`` truster rows (every trustee, every context) —
  the trustee axis is where sharding pays, and a full 10⁵×10⁵ surface
  would measure memory bandwidth, not invalidation.

Bit-identity is asserted at every size: against the scalar oracle rows
where the oracle runs, and against a freshly built engine over the
mutated table everywhere (so the incremental path can never drift from a
from-scratch rebuild).
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.context import TrustContext
from repro.core.decay import ExponentialDecay
from repro.core.engine import TrustEngine
from repro.core.journal import DurableTrustPlane, JournalConfig
from repro.core.recommender import AllianceRegistry, RecommenderWeights
from repro.core.store import snapshot_trust_store
from repro.core.tables import TrustTable, level_to_value

__all__ = [
    "SCHEMA",
    "SIZES",
    "REPEATS",
    "REFERENCE_ROWS",
    "SCALAR_CAP",
    "LARGE_TRUSTER_ROWS",
    "SMOKE_SLOWDOWN_LIMIT",
    "MIN_LARGE_SPEEDUP",
    "MIN_INCREMENTAL_SPEEDUP",
    "INCREMENTAL_FLOOR_SIZE",
    "DIRTY_SMOKE_RATIO",
    "MIN_DELTA_SPEEDUP",
    "DELTA_FLOOR_SIZE",
    "DELTA_SMOKE_RATIO",
    "DIRTY_ENTITY_RATIO",
    "build_case",
    "run_case",
    "run_sweep",
    "validate_trust_payload",
    "render_sweep",
    "write_artifact",
]

SCHEMA = "repro.bench.trust/v3"
#: Default artifact path — the repository root, next to ``BENCH_sched.json``.
DEFAULT_ARTIFACT = Path(__file__).resolve().parents[3] / "BENCH_trust.json"
#: Total entity counts swept (half trusters, half trustees).
SIZES = (64, 256, 1024, 10_000, 100_000)
OPINIONS_PER_TRUSTEE = 8
N_CONTEXTS = 4
SEED = 0
REPEATS = 3
#: Truster rows the scalar reference is timed on (a full scalar surface is
#: cubic: rows x trustees x domain-bucket walk).
REFERENCE_ROWS = 4
#: Largest size at which the scalar oracle runs (and is asserted against).
SCALAR_CAP = 1024
#: Truster rows evaluated above ``SCALAR_CAP`` (full trustee/context axes).
LARGE_TRUSTER_ROWS = 64
#: CI guard: the batched kernel must not fall behind the scalar reference
#: by more than this factor at the smoke size.
SMOKE_SLOWDOWN_LIMIT = 1.5
#: Acceptance floor: per-row speedup required at >= 1024 entities.
MIN_LARGE_SPEEDUP = 5.0
#: Acceptance floor: wholesale/dirty speedup required at the sizes below.
MIN_INCREMENTAL_SPEEDUP = 10.0
INCREMENTAL_FLOOR_SIZE = 10_000
#: CI scale smoke: dirty-shard re-eval must cost at most this fraction of a
#: wholesale rebuild (the regression-guard analogue of the 1.5x slowdown
#: limit — 0.2 leaves 2x slack under the 10.0x artifact floor).
DIRTY_SMOKE_RATIO = 0.2
#: Acceptance floor: a delta checkpoint (journal-tail fsync of <= 1% dirty
#: entities) must beat a full snapshot by this factor at the size below.
MIN_DELTA_SPEEDUP = 10.0
DELTA_FLOOR_SIZE = 10_000
#: CI scale smoke: the delta checkpoint must cost at most this fraction of
#: a full snapshot (2x slack under the 10x artifact floor).
DELTA_SMOKE_RATIO = 0.2
#: Fraction of entities mutated between delta checkpoints.
DIRTY_ENTITY_RATIO = 0.01


def build_case(
    n_entities: int,
    *,
    opinions_per_trustee: int = OPINIONS_PER_TRUSTEE,
    n_contexts: int = N_CONTEXTS,
    seed: int = SEED,
):
    """Build one benchmark population: an engine plus its query surface.

    Entities split evenly into truster clients (``cd:*``) and trustee
    resources (``rd:*``).  Every (trustee, context) pair receives
    ``opinions_per_trustee`` recorded opinions from randomly chosen
    trusters; opinion values are uniform Table-6 OTL levels mapped through
    :func:`level_to_value`, so the value distribution matches the Hi/Hi
    scheduling workload's trust plane.  The single shared table serves both
    DTT and RTT roles (the paper's recommended deployment), alliances group
    the first trusters, and a few deterministic ``observe_outcome`` calls
    spread the learned accuracies so the factor column is non-trivial.

    Returns:
        ``(engine, trusters, trustees, contexts, now)``.
    """
    if n_entities < 4:
        raise ValueError("n_entities must be >= 4")
    rng = np.random.default_rng(seed)
    n_rd = n_entities // 2
    n_cd = n_entities - n_rd
    trusters = [f"cd:{i}" for i in range(n_cd)]
    trustees = [f"rd:{j}" for j in range(n_rd)]
    contexts = [TrustContext(f"toa{k}") for k in range(n_contexts)]

    # Uniform [1, 5] offered levels per opinion (Table-6 OTL distribution),
    # sampled per record rather than via a dense (cd, rd, toa) array so the
    # 10^5-entity cases stay in memory.
    table = TrustTable()
    k_holders = min(opinions_per_trustee, n_cd)
    for trustee in trustees:
        for context in contexts:
            holders = rng.choice(n_cd, size=k_holders, replace=False)
            levels = rng.integers(1, 6, size=k_holders)
            times = rng.uniform(0.0, 100.0, size=k_holders)
            for i, level, t in zip(holders, levels, times):
                table.record(
                    trusters[i], trustee, context,
                    level_to_value(int(level)), float(t),
                )

    alliances = AllianceRegistry()
    group = max(2, min(8, n_cd // 4))
    alliances.declare("bench-a", trusters[:group])
    alliances.declare("bench-b", trusters[group:2 * group])
    weights = RecommenderWeights(alliances=alliances)
    for i in range(0, n_cd, max(1, n_cd // 16)):
        weights.observe_outcome(trusters[i], 0.8, float(rng.uniform(0.0, 1.0)))

    engine = TrustEngine.build(
        decay=ExponentialDecay(rate=0.01), weights=weights, table=table
    )
    return engine, trusters, trustees, contexts, 120.0


def _scalar_surface(engine, rows, trustees, contexts, now) -> np.ndarray:
    out = np.empty((len(rows), len(trustees), len(contexts)))
    for i, x in enumerate(rows):
        for j, y in enumerate(trustees):
            for k, c in enumerate(contexts):
                out[i, j, k] = engine.gamma(x, y, c, now)
    return out


def _batched_surface(engine, trusters, trustees, contexts, now) -> np.ndarray:
    out = np.empty((len(trusters), len(trustees), len(contexts)))
    for k, c in enumerate(contexts):
        out[:, :, k] = engine.gamma_matrix(trusters, trustees, c, now)
    return out


def _mutate_domain(table: TrustTable, domain, step: int) -> None:
    """Overwrite one existing opinion whose trustee falls in ``domain``."""
    (truster, trustee, context), rec = next(iter(table.domain_records(domain)))
    value = (rec.value + 0.31 + 0.07 * (step % 5)) % 1.0
    table.record(
        truster, trustee, context, value, rec.last_transaction,
        transaction_count=rec.transaction_count,
    )


def _time_durability(
    table: TrustTable, weights, n_entities: int, repeats: int
) -> tuple[float, float, int]:
    """Time a full snapshot against a delta checkpoint on ``table``.

    The delta path mutates ``DIRTY_ENTITY_RATIO`` of the entities (in-place
    opinion overwrites, each journaled) and times
    :meth:`~repro.core.journal.DurableTrustPlane.checkpoint` — a
    journal-tail fsync, O(changes) — against
    :func:`~repro.core.store.snapshot_trust_store`, which rewrites and
    fsyncs every segment, O(store).

    Returns:
        ``(full_snapshot_s, delta_checkpoint_s, dirty_entities)``.
    """
    dirty_n = max(1, int(n_entities * DIRTY_ENTITY_RATIO))
    victims = []
    for key, rec in table.items():
        victims.append((key, rec))
        if len(victims) == dirty_n:
            break
    base = Path(tempfile.mkdtemp(prefix="trustbench-durability-"))
    try:
        full_s = np.inf
        for _ in range(repeats):
            start = time.perf_counter()
            snapshot_trust_store(base / "full", table, weights)
            full_s = min(full_s, time.perf_counter() - start)
        plane = DurableTrustPlane.create(
            base / "plane", table, weights,
            # The sweep times the pure delta path; compaction is benched
            # implicitly by the full-snapshot column.
            config=JournalConfig(min_compact_bytes=1 << 40),
        )
        delta_s = np.inf
        for r in range(repeats):
            for (z, y, c), rec in victims:
                table.record(
                    z, y, c,
                    (rec.value + 0.17 * (r + 1)) % 1.0,
                    rec.last_transaction,
                    transaction_count=rec.transaction_count,
                )
            start = time.perf_counter()
            plane.checkpoint()
            delta_s = min(delta_s, time.perf_counter() - start)
        plane.close()
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return float(full_s), float(delta_s), dirty_n


def run_case(
    n_entities: int, *, repeats: int = REPEATS, reference_rows: int = REFERENCE_ROWS,
    opinions_per_trustee: int = OPINIONS_PER_TRUSTEE, n_contexts: int = N_CONTEXTS,
    seed: int = SEED,
) -> dict:
    """Time one population; returns the per-case result entry."""
    engine, trusters, trustees, contexts, now = build_case(
        n_entities, opinions_per_trustee=opinions_per_trustee,
        n_contexts=n_contexts, seed=seed,
    )
    table = engine.table
    scalar_runs = n_entities <= SCALAR_CAP
    eval_rows = trusters if scalar_runs else trusters[:LARGE_TRUSTER_ROWS]
    ref_rows = trusters[:reference_rows]

    # Warm-up builds the columnar mirror once; clearing the memo per repeat
    # then times the batched evaluation kernel itself.
    batched = _batched_surface(engine, eval_rows, trustees, contexts, now)
    batched_s = np.inf
    for _ in range(repeats):
        engine.clear_memo()
        start = time.perf_counter()
        _batched_surface(engine, eval_rows, trustees, contexts, now)
        batched_s = min(batched_s, time.perf_counter() - start)

    scalar_s = scalar_row_s = speedup = None
    if scalar_runs:
        scalar_s = np.inf
        for _ in range(repeats):
            start = time.perf_counter()
            scalar = _scalar_surface(engine, ref_rows, trustees, contexts, now)
            scalar_s = min(scalar_s, time.perf_counter() - start)
        assert np.array_equal(scalar, batched[: len(ref_rows)]), (
            f"batched surface diverged from scalar rows at n_entities={n_entities}"
        )
        scalar_row_s = scalar_s / len(ref_rows)

    batched_row_s = batched_s / len(eval_rows)
    if scalar_runs:
        speedup = scalar_row_s / batched_row_s

    domains = table.domains_present()
    # Wholesale: every domain mutated -> every shard rebuilds and every
    # memoised Γ sub-row is stale.  The warm memo from above makes repeat 0
    # representative already.
    wholesale_s = np.inf
    for r in range(repeats):
        for domain in domains:
            _mutate_domain(table, domain, r)
        start = time.perf_counter()
        _batched_surface(engine, eval_rows, trustees, contexts, now)
        wholesale_s = min(wholesale_s, time.perf_counter() - start)

    # Dirty: one domain mutated -> one shard rebuilds, the other domains'
    # sub-rows are served from the epoch-keyed memo.
    dirty_s = np.inf
    for r in range(repeats):
        _mutate_domain(table, domains[0], repeats + r)
        start = time.perf_counter()
        _batched_surface(engine, eval_rows, trustees, contexts, now)
        dirty_s = min(dirty_s, time.perf_counter() - start)

    # Per-size bit-identity: the incrementally maintained surface must match
    # a from-scratch engine over the (mutated) table exactly.
    incremental = _batched_surface(engine, eval_rows, trustees, contexts, now)
    fresh_engine = TrustEngine.build(
        decay=engine.reputation.decay, weights=engine.reputation.weights,
        table=table,
    )
    fresh = _batched_surface(fresh_engine, eval_rows, trustees, contexts, now)
    assert np.array_equal(incremental, fresh), (
        f"incremental surface diverged from a fresh rebuild at "
        f"n_entities={n_entities}"
    )

    # Durability: full snapshot vs delta checkpoint with <= 1% dirty
    # entities.  Runs last — the journaled overwrites happen after the
    # bit-identity assertions above.
    full_snapshot_s, delta_checkpoint_s, dirty_entities = _time_durability(
        table, engine.reputation.weights, n_entities, repeats
    )

    return {
        "n_entities": n_entities,
        "n_opinions": len(list(table.items())),
        "n_contexts": n_contexts,
        "n_shards": len(domains),
        "truster_rows": len(eval_rows),
        "scalar_rows": len(ref_rows) if scalar_runs else 0,
        "scalar_s": scalar_s,
        "scalar_row_s": scalar_row_s,
        "batched_s": batched_s,
        "batched_row_s": batched_row_s,
        "speedup": speedup,
        "wholesale_s": wholesale_s,
        "dirty_s": dirty_s,
        "incremental_speedup": wholesale_s / dirty_s,
        "dirty_entities": dirty_entities,
        "full_snapshot_s": full_snapshot_s,
        "delta_checkpoint_s": delta_checkpoint_s,
        "delta_speedup": full_snapshot_s / delta_checkpoint_s,
    }


def run_sweep(
    sizes=SIZES, *, repeats: int = REPEATS, reference_rows: int = REFERENCE_ROWS
) -> dict:
    """Time every population size; returns the JSON artifact payload."""
    results = [
        run_case(n, repeats=repeats, reference_rows=reference_rows) for n in sizes
    ]
    return {
        "schema": SCHEMA,
        "workload": {
            "source": "table6-otl",
            "opinions_per_trustee": OPINIONS_PER_TRUSTEE,
            "contexts": N_CONTEXTS,
            "decay": "exponential(rate=0.01)",
            "seed": SEED,
        },
        "caps": {
            "scalar_entities": SCALAR_CAP,
            "large_truster_rows": LARGE_TRUSTER_ROWS,
        },
        "reference_rows": reference_rows,
        "repeats": repeats,
        "results": results,
    }


def validate_trust_payload(payload: dict) -> None:
    """Schema check shared by the CI smoke test and artifact consumers."""
    assert payload["schema"] == SCHEMA
    assert set(payload) == {
        "schema", "workload", "caps", "reference_rows", "repeats", "results",
    }
    assert set(payload["workload"]) == {
        "source", "opinions_per_trustee", "contexts", "decay", "seed",
    }
    assert set(payload["caps"]) == {"scalar_entities", "large_truster_rows"}
    assert payload["results"], "empty results"
    for entry in payload["results"]:
        assert set(entry) == {
            "n_entities", "n_opinions", "n_contexts", "n_shards",
            "truster_rows", "scalar_rows", "scalar_s", "scalar_row_s",
            "batched_s", "batched_row_s", "speedup",
            "wholesale_s", "dirty_s", "incremental_speedup",
            "dirty_entities", "full_snapshot_s", "delta_checkpoint_s",
            "delta_speedup",
        }
        assert entry["n_entities"] >= 4
        assert entry["n_opinions"] > 0
        assert entry["n_shards"] >= 1
        assert 0 < entry["truster_rows"] <= entry["n_entities"]
        assert entry["batched_s"] > 0
        assert entry["wholesale_s"] > 0 and entry["dirty_s"] > 0
        assert np.isclose(
            entry["incremental_speedup"],
            entry["wholesale_s"] / entry["dirty_s"],
        )
        scalar_runs = entry["n_entities"] <= payload["caps"]["scalar_entities"]
        if scalar_runs:
            assert 0 < entry["scalar_rows"] <= entry["n_entities"]
            assert entry["scalar_s"] > 0
            assert np.isclose(
                entry["speedup"], entry["scalar_row_s"] / entry["batched_row_s"]
            )
        else:
            assert entry["scalar_rows"] == 0
            assert entry["scalar_s"] is None
            assert entry["scalar_row_s"] is None
            assert entry["speedup"] is None
        if scalar_runs and entry["n_entities"] >= 1024:
            assert entry["speedup"] >= MIN_LARGE_SPEEDUP, (
                f"batched kernel below the {MIN_LARGE_SPEEDUP:g}x acceptance "
                f"floor at n_entities={entry['n_entities']}: "
                f"{entry['speedup']:.2f}x"
            )
        if (
            entry["n_entities"] >= INCREMENTAL_FLOOR_SIZE
            and entry["n_shards"] >= 16
        ):
            assert entry["incremental_speedup"] >= MIN_INCREMENTAL_SPEEDUP, (
                f"dirty-shard re-eval below the {MIN_INCREMENTAL_SPEEDUP:g}x "
                f"acceptance floor at n_entities={entry['n_entities']}: "
                f"{entry['incremental_speedup']:.2f}x"
            )
        assert 1 <= entry["dirty_entities"] <= max(
            1, entry["n_entities"] // 100
        )
        assert entry["full_snapshot_s"] > 0
        assert entry["delta_checkpoint_s"] > 0
        assert np.isclose(
            entry["delta_speedup"],
            entry["full_snapshot_s"] / entry["delta_checkpoint_s"],
        )
        if entry["n_entities"] >= DELTA_FLOOR_SIZE:
            assert entry["delta_speedup"] >= MIN_DELTA_SPEEDUP, (
                f"delta checkpoint below the {MIN_DELTA_SPEEDUP:g}x "
                f"acceptance floor at n_entities={entry['n_entities']}: "
                f"{entry['delta_speedup']:.2f}x vs a full snapshot"
            )


def render_sweep(payload: dict) -> str:
    """Human-readable summary of a sweep payload."""
    lines = []
    for entry in payload["results"]:
        scalar = (
            f"scalar {entry['scalar_row_s'] * 1e3:9.3f} ms/row"
            if entry["scalar_s"] is not None
            else "scalar    (capped)   "
        )
        speedup = (
            f"{entry['speedup']:8.1f}x" if entry["speedup"] is not None
            else "       —"
        )
        lines.append(
            f"n={entry['n_entities']:<6} opinions={entry['n_opinions']:<7} "
            f"{scalar}  batched {entry['batched_row_s'] * 1e3:9.3f} ms/row  "
            f"speedup {speedup}  incremental {entry['incremental_speedup']:6.1f}x "
            f"(wholesale {entry['wholesale_s'] * 1e3:9.2f} ms, "
            f"dirty {entry['dirty_s'] * 1e3:9.2f} ms)  "
            f"delta-ckpt {entry['delta_speedup']:6.1f}x "
            f"(full {entry['full_snapshot_s'] * 1e3:9.2f} ms, "
            f"delta {entry['delta_checkpoint_s'] * 1e3:9.2f} ms, "
            f"{entry['dirty_entities']} dirty)"
        )
    return "\n".join(lines)


def write_artifact(payload: dict, path: str | Path | None = None) -> Path:
    """Validate and write the artifact (default :data:`DEFAULT_ARTIFACT`);
    returns the path."""
    validate_trust_payload(payload)
    path = Path(path) if path is not None else DEFAULT_ARTIFACT
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return path
