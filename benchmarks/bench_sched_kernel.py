"""Scaling bench — scheduling-kernel perf trajectory (``BENCH_sched.json``).

Sweeps the batch heuristics over growing meta-requests on the Table-6 shape
(inconsistent Hi/Hi heterogeneity, 16 machines) and records, per
heuristic, the wall time of the reference loop and of the kernel its public
name runs (``make_heuristic(name)``: Min-min's sorted claim queues, Max-min's
and Sufferage's vectorised rounds), plus the speedup, as a
machine-readable JSON artifact at the repository root.  The artifact is the
project's perf trajectory: regenerate it after kernel work and commit it so
regressions show up in review as a diff.

Three entry points:

* ``test_sched_kernel_smoke`` — CI guard: runs the smallest size (schema
  validated in-memory, each kernel must not fall behind its reference by
  more than 1.5x) **and** one chunked Min-min case (n=1024, chunks smaller
  than the workload) asserting the claim queues stay bit-identical to the
  reference and at least 4x faster than it.
* ``test_sched_kernel_scale_smoke`` — opt-in via ``BENCH_SCHED_SCALE=1``
  (CI runs it as its own job): the n=10⁵ Min-min path, pinned by digest
  against the committed trajectory's workload instead of an in-run
  oracle — the reference loop would need far longer than the kernel.
* ``test_sched_kernel_full_sweep`` — the real sweep; opt-in via
  ``BENCH_SCHED_FULL=1`` since it plans up to 10⁶ tasks.  Writes
  ``BENCH_sched.json``.

Caps keep the sweep honest *and* finite: reference timings stop at
``REFERENCE_CAP`` tasks (the pure-Python loops are quadratic in
practice), and each kernel at its own ``KERNEL_CAPS`` entry — Min-min's
claim queues reach 10⁶, while the Max-min and Sufferage rounds rescan O(n)
state per round, so timing them past 10⁵ would only burn hours
re-measuring a known quadratic.  Above a cap the corresponding field is
``null``.  Wherever the reference runs, the kernel's plan is asserted
identical to it, so every artifact regeneration re-proves bit-identity at
the overlapping sizes.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.scheduling.costs import CostProvider
from repro.scheduling.maxmin import MaxMinHeuristic
from repro.scheduling.minmin import MinMinHeuristic
from repro.scheduling.policy import TrustPolicy
from repro.scheduling.registry import make_heuristic
from repro.scheduling.scale import HeapMinMinHeuristic
from repro.scheduling.sufferage import SufferageHeuristic
from repro.workloads.consistency import Consistency
from repro.workloads.heterogeneity import HIHI
from repro.workloads.scenario import ScenarioSpec, materialize

SCHEMA = "repro.bench.sched/v3"
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_sched.json"
SIZES = (64, 256, 1024, 4096, 100_000, 1_000_000)
N_MACHINES = 16
SEED = 0
REFERENCE_CAP = 1024
KERNEL_CAPS = {"min-min": 1_000_000, "max-min": 100_000, "sufferage": 100_000}
REPEATS = 3
#: Above this size one timed run (after a cheap cache warm-up) replaces
#: best-of-``REPEATS``: the kernels run for seconds-to-minutes, far above
#: timer noise, and the sweep must terminate on one core.
SINGLE_REPEAT_ABOVE = 4096
#: CI guard: no kernel may fall behind its reference by more than this
#: factor at the smoke size.
SMOKE_SLOWDOWN_LIMIT = 1.5
#: CI guard for the chunked Min-min smoke: minimum reference/kernel
#: wall-time ratio at ``SMOKE_RATIO_N``.  Measured 8.4x on one core; below
#: 4x the claim queues have lost their O(m) round cost, which is a real
#: regression, not noise.
SMOKE_MIN_MIN_SPEEDUP = 4.0
SMOKE_RATIO_N = 1024
#: Chunk size of the chunked smoke case — smaller than the workload so the
#: streaming assembly is genuinely exercised.
SMOKE_CHUNK = 256

#: Public name → its reference loop (the bit-identity oracle).
REFERENCES = (
    ("min-min", MinMinHeuristic),
    ("max-min", MaxMinHeuristic),
    ("sufferage", SufferageHeuristic),
)


def build_case(n_tasks: int):
    spec = ScenarioSpec(
        n_tasks=n_tasks,
        n_machines=N_MACHINES,
        heterogeneity=HIHI,
        consistency=Consistency.INCONSISTENT,
        target_load=3.0,
    )
    scenario = materialize(spec, seed=SEED)
    costs = CostProvider(
        grid=scenario.grid, eec=scenario.eec, policy=TrustPolicy.aware()
    )
    return list(scenario.requests), costs, np.zeros(N_MACHINES)


def warm_provider(requests, costs) -> None:
    """One streamed assembly pass fills the trust-cost caches cheaply."""
    for _start, _chunk in costs.mapping_ecc_chunks(requests):
        pass


def time_plan(heuristic, requests, costs, avail, repeats: int) -> tuple[float, list]:
    """Best-of-``repeats`` wall time of a full ``plan()`` call.

    With ``repeats > 1`` the first (untimed) call warms the provider's
    trust-cost caches so every kernel is measured in its steady state; the
    single-repeat large sizes rely on :func:`warm_provider` instead.
    """
    plan = heuristic.plan(requests, costs, avail.copy()) if repeats > 1 else None
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        timed = heuristic.plan(requests, costs, avail.copy())
        best = min(best, time.perf_counter() - start)
    return best, (plan if plan is not None else timed)


def plan_keys(plan) -> list[tuple[int, int]]:
    return [(p.request.index, p.machine_index) for p in plan]


def plan_digest(plan) -> str:
    payload = ",".join(f"{p.request.index}:{p.machine_index}" for p in plan)
    return hashlib.sha256(payload.encode()).hexdigest()


def run_sweep(sizes, repeats: int = REPEATS) -> dict:
    """Time each public kernel and its reference at every size; the JSON payload."""
    results = []
    for n_tasks in sizes:
        requests, costs, avail = build_case(n_tasks)
        reps = 1 if n_tasks > SINGLE_REPEAT_ABOVE else repeats
        if reps == 1:
            warm_provider(requests, costs)
        for name, Reference in REFERENCES:
            if n_tasks > KERNEL_CAPS[name]:
                continue
            kernel = make_heuristic(name)
            kernel_s, plan = time_plan(kernel, requests, costs, avail, reps)
            assert len(plan) == n_tasks
            ref_s = None
            if n_tasks <= REFERENCE_CAP:
                ref_s, ref_plan = time_plan(Reference(), requests, costs, avail, reps)
                assert plan_keys(ref_plan) == plan_keys(plan), (
                    f"{name} {kernel.kernel} plan diverged at n_tasks={n_tasks}"
                )
            results.append(
                {
                    "heuristic": name,
                    "n_tasks": n_tasks,
                    "repeats": reps,
                    "reference_s": ref_s,
                    "kernel": kernel.kernel,
                    "kernel_s": kernel_s,
                    "speedup": (ref_s / kernel_s) if ref_s is not None else None,
                }
            )
    return {
        "schema": SCHEMA,
        "workload": {
            "heterogeneity": "HiHi",
            "consistency": "inconsistent",
            "n_machines": N_MACHINES,
            "target_load": 3.0,
            "seed": SEED,
        },
        "reference_cap": REFERENCE_CAP,
        "kernel_caps": dict(KERNEL_CAPS),
        "repeats": repeats,
        "results": results,
    }


def validate_payload(payload: dict) -> None:
    """Schema check shared by the CI smoke test and artifact consumers."""
    assert payload["schema"] == SCHEMA
    assert set(payload) == {
        "schema", "workload", "reference_cap", "kernel_caps", "repeats", "results",
    }
    workload = payload["workload"]
    assert set(workload) == {
        "heterogeneity", "consistency", "n_machines", "target_load", "seed",
    }
    names = {name for name, _ in REFERENCES}
    assert set(payload["kernel_caps"]) == names
    assert payload["results"], "empty results"
    for entry in payload["results"]:
        assert set(entry) == {
            "heuristic", "n_tasks", "repeats", "reference_s", "kernel",
            "kernel_s", "speedup",
        }
        assert entry["heuristic"] in names
        assert entry["kernel"] == make_heuristic(entry["heuristic"]).kernel
        assert 0 < entry["n_tasks"] <= payload["kernel_caps"][entry["heuristic"]]
        assert entry["repeats"] >= 1
        assert entry["kernel_s"] > 0
        if entry["n_tasks"] <= payload["reference_cap"]:
            assert entry["reference_s"] > 0
            assert entry["speedup"] == pytest.approx(
                entry["reference_s"] / entry["kernel_s"]
            )
        else:
            assert entry["reference_s"] is None and entry["speedup"] is None


def test_sched_kernel_smoke():
    payload = run_sweep(sizes=SIZES[:1], repeats=1)
    validate_payload(payload)
    for entry in payload["results"]:
        assert entry["speedup"] >= 1.0 / SMOKE_SLOWDOWN_LIMIT, (
            f"{entry['kernel']} {entry['heuristic']} fell behind the reference "
            f"({entry['speedup']:.2f}x) at n_tasks={entry['n_tasks']}"
        )


def test_sched_kernel_smoke_large_chunked():
    """One chunked Min-min case through the streaming path, every smoke run.

    n=1024 with 256-task chunks: the chunk iterator yields several chunks
    and the claim queues leave their trivial regime, while the reference
    loop stays cheap enough to serve as the in-run oracle and comparator.
    """
    requests, costs, avail = build_case(SMOKE_RATIO_N)
    warm_provider(requests, costs)
    # Best-of-2 keeps the ratio guard stable against one-off stalls.
    ref_s, ref_plan = time_plan(MinMinHeuristic(), requests, costs, avail, repeats=2)
    kernel_s, plan = time_plan(
        HeapMinMinHeuristic(chunk_size=SMOKE_CHUNK), requests, costs, avail, repeats=2
    )
    assert plan_keys(ref_plan) == plan_keys(plan), (
        f"min-min plan diverged at n_tasks={SMOKE_RATIO_N}"
    )
    assert ref_s >= kernel_s * SMOKE_MIN_MIN_SPEEDUP, (
        f"min-min kernel is only {ref_s / kernel_s:.2f}x faster than the "
        f"reference ({SMOKE_MIN_MIN_SPEEDUP}x required) at n_tasks={SMOKE_RATIO_N}"
    )


#: Pinned digest of the n=10⁵ min-min scale plan on the bench workload
#: (seed 0, Hi/Hi inconsistent, 16 machines) — the scale smoke's oracle.
SCALE_SMOKE_N = 100_000
SCALE_SMOKE_DIGEST = (
    "c809ddce111964f3cca8c38494a90f0673b01227ab9a6b380c5d65044d77bb43"
)
#: Generous wall-time ceiling for the scale smoke: the measured time is
#: ~1.5 s on one core, so tripping this means the claim queues lost their
#: near-linear round cost, not that the runner was slow.
SCALE_SMOKE_CEILING_S = 120.0


@pytest.mark.skipif(
    os.environ.get("BENCH_SCHED_SCALE") != "1",
    reason="scale smoke is opt-in: BENCH_SCHED_SCALE=1",
)
def test_sched_kernel_scale_smoke():
    requests, costs, avail = build_case(SCALE_SMOKE_N)
    warm_provider(requests, costs)
    kernel_s, plan = time_plan(
        make_heuristic("min-min"), requests, costs, avail, repeats=1
    )
    assert len(plan) == SCALE_SMOKE_N
    assert plan_digest(plan) == SCALE_SMOKE_DIGEST
    assert kernel_s <= SCALE_SMOKE_CEILING_S, (
        f"min-min took {kernel_s:.1f}s at n={SCALE_SMOKE_N}"
    )


def test_artifact_matches_schema():
    """The committed perf trajectory must stay machine-readable."""
    if not ARTIFACT.exists():
        pytest.skip(f"{ARTIFACT.name} not generated yet")
    validate_payload(json.loads(ARTIFACT.read_text(encoding="utf-8")))


@pytest.mark.skipif(
    os.environ.get("BENCH_SCHED_FULL") != "1",
    reason="full sweep is opt-in: BENCH_SCHED_FULL=1",
)
def test_sched_kernel_full_sweep():
    payload = run_sweep(SIZES)
    validate_payload(payload)
    ARTIFACT.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    lines = [f"perf trajectory written to {ARTIFACT}"]
    for entry in payload["results"]:
        ref_ms = (
            f"{entry['reference_s'] * 1e3:10.2f} ms"
            if entry["reference_s"] is not None
            else "       n/a   "
        )
        speedup = (
            f"{entry['speedup']:6.2f}x" if entry["speedup"] is not None else "   n/a"
        )
        lines.append(
            f"{entry['heuristic']:>10} n={entry['n_tasks']:<8} "
            f"reference {ref_ms}  {entry['kernel']:>10} "
            f"{entry['kernel_s'] * 1e3:10.2f} ms  speedup {speedup}"
        )
    print("\n".join(lines))
