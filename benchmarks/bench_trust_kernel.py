"""Scaling bench — trust-kernel perf trajectory (``BENCH_trust.json``).

Sweeps the batched Γ kernel (:meth:`TrustEngine.gamma_matrix`) against the
scalar :meth:`TrustEngine.gamma` double loop over growing entity
populations whose opinions follow the Table-6 OTL distribution, and — per
size — times a *wholesale* re-evaluation (every Grid domain mutated, every
shard rebuilt) against a *dirty-shard* re-evaluation (one domain mutated,
one shard rebuilt, all other Γ sub-rows served from the epoch-keyed memo).
The results land as a machine-readable JSON artifact at the repository
root.  The sweep itself lives in :mod:`repro.experiments.trustbench` so
``repro-trms bench trust`` regenerates the same artifact in one command.

Three entry points:

* ``test_trust_kernel_smoke`` — CI guard: runs the smallest size only and
  fails if the batched kernel falls behind the scalar reference by more
  than 1.5x (it should win by orders of magnitude; the slack absorbs
  CI-runner noise).  Bit-identity of the sampled rows is asserted inside
  the sweep.
* ``test_trust_scale_smoke`` — opt-in via ``BENCH_TRUST_SCALE=1``: runs
  the 10⁴-entity / 16-shard case and fails unless a dirty-shard re-eval
  costs at most ``DIRTY_SMOKE_RATIO`` (0.2x) of a wholesale rebuild — the
  regression-guard analogue of the 1.5x slowdown limit, with 2x slack
  under the artifact's 10x acceptance floor.  The same case also guards
  the durability path: a delta checkpoint (journal-tail fsync of <= 1%
  dirty entities) must cost at most ``DELTA_SMOKE_RATIO`` (0.2x) of a
  full snapshot rewrite.
* ``test_trust_kernel_full_sweep`` — the real sweep; opt-in via
  ``BENCH_TRUST_FULL=1``.  Writes ``BENCH_trust.json``.

The scalar reference walks the trustee's domain bucket per Γ call (still
cubic over a full surface), so it is timed on ``REFERENCE_ROWS`` truster
rows, runs only up to ``SCALAR_CAP`` entities, and the comparison is
per-row; above the cap the surfaces are evaluated on
``LARGE_TRUSTER_ROWS`` trusters and checked bit-identical against a
from-scratch engine instead.  See the trustbench module docstring.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.trustbench import (
    DEFAULT_ARTIFACT,
    DELTA_SMOKE_RATIO,
    DIRTY_SMOKE_RATIO,
    SIZES,
    SMOKE_SLOWDOWN_LIMIT,
    render_sweep,
    run_case,
    run_sweep,
    validate_trust_payload,
    write_artifact,
)

ARTIFACT = DEFAULT_ARTIFACT

#: Entity count of the BENCH_TRUST_SCALE=1 smoke (16 crc32 shards).
SCALE_SMOKE_ENTITIES = 10_000


def test_trust_kernel_smoke():
    payload = run_sweep(sizes=SIZES[:1], repeats=1)
    validate_trust_payload(payload)
    for entry in payload["results"]:
        assert entry["speedup"] >= 1.0 / SMOKE_SLOWDOWN_LIMIT, (
            f"batched Γ kernel fell behind the scalar reference "
            f"({entry['speedup']:.2f}x) at n_entities={entry['n_entities']}"
        )


def test_artifact_matches_schema():
    """The committed perf trajectory must stay machine-readable."""
    if not ARTIFACT.exists():
        pytest.skip(f"{ARTIFACT.name} not generated yet")
    validate_trust_payload(json.loads(ARTIFACT.read_text(encoding="utf-8")))


@pytest.mark.skipif(
    os.environ.get("BENCH_TRUST_SCALE") != "1",
    reason="trust scale smoke is opt-in: BENCH_TRUST_SCALE=1",
)
def test_trust_scale_smoke():
    """Dirty-shard re-eval must stay far cheaper than a wholesale rebuild."""
    entry = run_case(SCALE_SMOKE_ENTITIES, repeats=2)
    assert entry["n_shards"] >= 16, (
        f"scale smoke expected >= 16 shards, got {entry['n_shards']}"
    )
    assert entry["dirty_s"] <= DIRTY_SMOKE_RATIO * entry["wholesale_s"], (
        f"dirty-shard re-eval cost {entry['dirty_s']:.3f}s vs wholesale "
        f"{entry['wholesale_s']:.3f}s at n_entities={entry['n_entities']} "
        f"(ratio {entry['dirty_s'] / entry['wholesale_s']:.2f} > "
        f"{DIRTY_SMOKE_RATIO:g})"
    )
    # Delta-checkpoint regression guard: a journal-tail fsync of <= 1%
    # dirty entities must stay far cheaper than a full snapshot rewrite.
    ratio = entry["delta_checkpoint_s"] / entry["full_snapshot_s"]
    assert ratio <= DELTA_SMOKE_RATIO, (
        f"delta checkpoint cost {entry['delta_checkpoint_s']:.3f}s vs full "
        f"snapshot {entry['full_snapshot_s']:.3f}s at "
        f"n_entities={entry['n_entities']} (ratio {ratio:.2f} > "
        f"{DELTA_SMOKE_RATIO:g})"
    )


@pytest.mark.skipif(
    os.environ.get("BENCH_TRUST_FULL") != "1",
    reason="full sweep is opt-in: BENCH_TRUST_FULL=1",
)
def test_trust_kernel_full_sweep():
    payload = run_sweep(SIZES)
    path = write_artifact(payload)
    print(f"perf trajectory written to {path}\n{render_sweep(payload)}")
