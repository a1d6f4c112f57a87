"""Service-plane bench — ingestion throughput trajectory (``BENCH_service.json``).

Replays growing Table-6-shaped request streams through the always-on
service (``repro.service``) and records, per size and admission arm:

* sustained ingestion throughput (submitted requests per wall second),
* the shed fraction under bounded admission,
* the p99 mapping decision latency — the ``svc.window_wall_s``
  histogram, one sample per rolling window: forming, planning and
  committing that window's meta-request (admission itself is a ~1 µs
  enqueue, timed separately as ``svc.submit_latency_s``), and
* the service's wall-time overhead over the batch ``TRMScheduler`` on the
  identical workload, per request admitted — the service drives the same
  engine, so anything beyond event-plumbing overhead is a regression.  A
  bounded arm that sheds requests does less work than the batch run, so
  both sides are divided by the requests they actually scheduled.

Two entry points, mirroring ``bench_sched_kernel.py``:

* ``test_service_throughput_smoke`` — CI guard: smallest size only,
  validates the payload schema in-memory and fails if the unlimited-arm
  service is more than 1.5x slower than the batch scheduler.
* ``test_service_throughput_full_sweep`` — the real sweep; opt-in via
  ``BENCH_SERVICE_FULL=1``.  Writes ``BENCH_service.json``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments.config import (
    PAPER_BATCH_INTERVAL,
    paper_policies,
    paper_spec,
)
from repro.obs.metrics import MetricsRegistry
from repro.scheduling import TRMScheduler, make_heuristic
from repro.service import AdmissionPolicy, ServiceConfig, replay_scenario
from repro.workloads.consistency import Consistency
from repro.workloads.scenario import materialize

SCHEMA = "repro.bench.service/v2"
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_service.json"
SIZES = (100, 400, 1600)
SEED = 0
REPEATS = 3
#: CI guard: the unlimited-admission service must not fall behind the
#: batch scheduler by more than this factor at the smoke size.
SMOKE_SLOWDOWN_LIMIT = 1.5

#: The bounded arm's admission policy, scaled per size in :func:`arms`.
ARMS = ("unlimited", "bounded")


def build_case(n_tasks: int):
    spec = paper_spec(n_tasks, Consistency.INCONSISTENT)
    return materialize(spec, seed=SEED)


def arm_config(arm: str, n_tasks: int) -> ServiceConfig:
    if arm == "unlimited":
        return ServiceConfig()
    return ServiceConfig(
        admission=AdmissionPolicy(queue_capacity=max(8, n_tasks // 4)),
        backpressure_high=max(16, n_tasks // 2),
    )


def time_batch(scenario) -> float:
    """Best-of-``REPEATS`` wall time of the batch reference run."""
    aware, _ = paper_policies()
    best = float("inf")
    for _ in range(REPEATS):
        scheduler = TRMScheduler(
            scenario.grid,
            scenario.eec,
            aware,
            make_heuristic("min-min"),
            batch_interval=PAPER_BATCH_INTERVAL,
        )
        start = time.perf_counter()
        scheduler.run(scenario.requests)
        best = min(best, time.perf_counter() - start)
    return best


def time_service(scenario, config: ServiceConfig):
    """Best-of-``REPEATS`` service replay; returns (wall_s, result, p99).

    Wall time is measured unmetered so the overhead ratio against the
    (equally unmetered) batch run isolates the service plane itself; one
    extra metered replay supplies the per-window decision histogram.
    """
    aware, _ = paper_policies()
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        run = replay_scenario(scenario, "min-min", aware, config=config)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            result = run
    metrics = MetricsRegistry()
    replay_scenario(scenario, "min-min", aware, config=config, metrics=metrics)
    p99 = metrics.histogram("svc.window_wall_s").p99
    return best, result, p99


def overhead(service_s: float, admitted: int, batch_s: float, n_tasks: int) -> float:
    """Service wall time per admitted request over batch time per request."""
    return (service_s / admitted) / (batch_s / n_tasks)


def run_sweep(sizes, arms=ARMS) -> dict:
    """Replay every size under every admission arm; returns the payload."""
    results = []
    for n_tasks in sizes:
        scenario = build_case(n_tasks)
        batch_s = time_batch(scenario)
        for arm in arms:
            wall_s, result, p99 = time_service(
                scenario, arm_config(arm, n_tasks)
            )
            results.append(
                {
                    "arm": arm,
                    "n_tasks": n_tasks,
                    "batch_s": batch_s,
                    "service_s": wall_s,
                    "admitted": result.admitted,
                    "overhead": overhead(wall_s, result.admitted, batch_s, n_tasks),
                    "throughput_rps": result.submitted / wall_s,
                    "shed_fraction": result.shed_total / result.submitted,
                    "decision_p99_s": p99,
                    "windows": result.windows,
                }
            )
    return {
        "schema": SCHEMA,
        "workload": {
            "shape": "table6",
            "consistency": "inconsistent",
            "heuristic": "min-min",
            "seed": SEED,
        },
        "repeats": REPEATS,
        "results": results,
    }


def validate_payload(payload: dict) -> None:
    """Schema check shared by the CI smoke test and artifact consumers."""
    assert payload["schema"] == SCHEMA
    assert set(payload) == {"schema", "workload", "repeats", "results"}
    assert set(payload["workload"]) == {
        "shape", "consistency", "heuristic", "seed",
    }
    assert payload["results"], "empty results"
    for entry in payload["results"]:
        assert set(entry) == {
            "arm", "n_tasks", "batch_s", "service_s", "admitted", "overhead",
            "throughput_rps", "shed_fraction", "decision_p99_s", "windows",
        }
        assert entry["arm"] in ARMS
        assert entry["n_tasks"] > 0
        assert 0 < entry["admitted"] <= entry["n_tasks"]
        assert entry["batch_s"] > 0 and entry["service_s"] > 0
        assert entry["overhead"] == pytest.approx(
            overhead(
                entry["service_s"], entry["admitted"],
                entry["batch_s"], entry["n_tasks"],
            )
        )
        assert entry["throughput_rps"] > 0
        assert 0.0 <= entry["shed_fraction"] <= 1.0
        assert entry["decision_p99_s"] >= 0.0
        assert entry["windows"] >= 1
        if entry["arm"] == "unlimited":
            assert entry["shed_fraction"] == 0.0
            assert entry["admitted"] == entry["n_tasks"]


def test_service_throughput_smoke():
    payload = run_sweep(sizes=SIZES[:1])
    validate_payload(payload)
    for entry in payload["results"]:
        if entry["arm"] != "unlimited":
            continue
        assert entry["overhead"] <= SMOKE_SLOWDOWN_LIMIT, (
            f"service plane is {entry['overhead']:.2f}x the batch scheduler "
            f"at n_tasks={entry['n_tasks']} (limit {SMOKE_SLOWDOWN_LIMIT}x)"
        )


def test_artifact_matches_schema():
    """The committed throughput trajectory must stay machine-readable."""
    if not ARTIFACT.exists():
        pytest.skip(f"{ARTIFACT.name} not generated yet")
    validate_payload(json.loads(ARTIFACT.read_text(encoding="utf-8")))


@pytest.mark.skipif(
    os.environ.get("BENCH_SERVICE_FULL") != "1",
    reason="full sweep is opt-in: BENCH_SERVICE_FULL=1",
)
def test_service_throughput_full_sweep():
    payload = run_sweep(SIZES)
    validate_payload(payload)
    ARTIFACT.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    lines = [f"throughput trajectory written to {ARTIFACT}"]
    for entry in payload["results"]:
        lines.append(
            f"{entry['arm']:>9} n={entry['n_tasks']:<5} "
            f"service {entry['service_s'] * 1e3:8.2f} ms  "
            f"overhead {entry['overhead']:5.2f}x  "
            f"{entry['throughput_rps']:10.0f} req/s  "
            f"shed {entry['shed_fraction']:5.1%}  "
            f"window p99 {entry['decision_p99_s'] * 1e3:7.3f} ms"
        )
    print("\n".join(lines))
