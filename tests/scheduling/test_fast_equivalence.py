"""Equivalence of the vectorised kernels with the reference heuristics.

The kernels behind the public ``"min-min"``, ``"max-min"`` and
``"sufferage"`` names must produce *identical plans* — same request→machine
assignments in the same order — as the reference loops for arbitrary
scenarios, including under hard trust constraints, retry exclusions and
trust-cache invalidation.
Duplex, which runs the public Min-min and Max-min kernels, must match
best-of(reference Min-min, reference Max-min).  The batched
``mapping_ecc_matrix`` assembly must likewise be bit-identical to stacking
reference rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.base import BatchHeuristic
from repro.scheduling.constraints import InfeasiblePolicy, TrustConstraint
from repro.scheduling.costs import CostProvider
from repro.scheduling.duplex import DuplexHeuristic
from repro.scheduling.fast import FastMaxMinHeuristic, FastSufferageHeuristic
from repro.scheduling.kpb import KpbHeuristic
from repro.scheduling.maxmin import MaxMinHeuristic
from repro.scheduling.minmin import MinMinHeuristic
from repro.scheduling.policy import TrustPolicy
from repro.scheduling.scale import HeapMinMinHeuristic
from repro.scheduling.sufferage import SufferageHeuristic
from repro.workloads.scenario import ScenarioSpec, materialize


class ReferenceDuplex(BatchHeuristic):
    """Oracle: best-of(reference Min-min, reference Max-min), priced row by row."""

    def plan(self, requests, costs, avail):
        plans = [
            MinMinHeuristic().plan(requests, costs, avail),
            MaxMinHeuristic().plan(requests, costs, avail),
        ]

        def makespan(plan) -> float:
            alphas = np.array(avail, dtype=np.float64, copy=True)
            for item in plan:
                row = costs.mapping_ecc_row(item.request)
                alphas[item.machine_index] += float(row[item.machine_index])
            return float(alphas.max())

        return plans[0] if makespan(plans[0]) <= makespan(plans[1]) else plans[1]


PAIRS = [
    (MinMinHeuristic, HeapMinMinHeuristic),
    (MaxMinHeuristic, FastMaxMinHeuristic),
    (SufferageHeuristic, FastSufferageHeuristic),
    (ReferenceDuplex, DuplexHeuristic),
]


def plans_equal(a, b) -> bool:
    return [(p.request.index, p.machine_index, p.order) for p in a] == [
        (p.request.index, p.machine_index, p.order) for p in b
    ]


def make_case(
    seed: int,
    n_tasks: int,
    n_machines: int,
    trust_aware: bool,
    constraint: TrustConstraint | None = None,
):
    spec = ScenarioSpec(n_tasks=n_tasks, n_machines=n_machines, target_load=3.0)
    scenario = materialize(spec, seed=seed)
    policy = TrustPolicy(trust_aware)
    costs = CostProvider(
        grid=scenario.grid, eec=scenario.eec, policy=policy, constraint=constraint
    )
    return scenario, costs


def apply_retry_state(scenario, costs, seed: int) -> None:
    """Exclude a few request/machine pairs and invalidate a few TC rows,
    mimicking the scheduler's retry re-pricing mid-run."""
    rng = np.random.default_rng(seed)
    requests = scenario.requests
    n_machines = scenario.grid.n_machines
    for req in rng.choice(requests, size=min(3, len(requests)), replace=False):
        costs.exclude(req.index, int(rng.integers(n_machines)))
    for req in rng.choice(requests, size=min(2, len(requests)), replace=False):
        costs.invalidate_trust_cache(req.index)


@pytest.mark.parametrize("Reference,Fast", PAIRS, ids=lambda c: c.__name__)
class TestEquivalence:
    def test_idle_machines(self, Reference, Fast):
        scenario, costs = make_case(seed=0, n_tasks=20, n_machines=5, trust_aware=True)
        avail = np.zeros(5)
        ref = Reference().plan(list(scenario.requests), costs, avail)
        fast = Fast().plan(list(scenario.requests), costs, avail)
        assert plans_equal(ref, fast)

    def test_loaded_machines(self, Reference, Fast):
        scenario, costs = make_case(seed=1, n_tasks=15, n_machines=4, trust_aware=False)
        avail = np.array([100.0, 0.0, 250.0, 40.0])
        ref = Reference().plan(list(scenario.requests), costs, avail)
        fast = Fast().plan(list(scenario.requests), costs, avail)
        assert plans_equal(ref, fast)

    def test_single_machine(self, Reference, Fast):
        scenario, costs = make_case(seed=2, n_tasks=8, n_machines=1, trust_aware=True)
        ref = Reference().plan(list(scenario.requests), costs, np.zeros(1))
        fast = Fast().plan(list(scenario.requests), costs, np.zeros(1))
        assert plans_equal(ref, fast)

    def test_empty_batch(self, Reference, Fast):
        _, costs = make_case(seed=3, n_tasks=2, n_machines=3, trust_aware=True)
        assert Fast().plan([], costs, np.zeros(3)) == []

    def test_tied_costs(self, Reference, Fast):
        # A uniform EEC matrix makes every completion a tie: the plans agree
        # only if the fast path reproduces the reference tie-breaks exactly.
        scenario, costs = make_case(seed=4, n_tasks=12, n_machines=4, trust_aware=False)
        costs.eec = np.full_like(costs.eec, 7.0)
        ref = Reference().plan(list(scenario.requests), costs, np.zeros(4))
        fast = Fast().plan(list(scenario.requests), costs, np.zeros(4))
        assert plans_equal(ref, fast)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_tasks=st.integers(min_value=1, max_value=30),
        n_machines=st.integers(min_value=1, max_value=8),
        trust_aware=st.booleans(),
    )
    def test_property_equivalence(self, Reference, Fast, seed, n_tasks, n_machines, trust_aware):
        scenario, costs = make_case(seed, n_tasks, n_machines, trust_aware)
        avail_rng = np.random.default_rng(seed + 1)
        avail = avail_rng.uniform(0, 500, size=n_machines)
        ref = Reference().plan(list(scenario.requests), costs, avail.copy())
        fast = Fast().plan(list(scenario.requests), costs, avail.copy())
        assert plans_equal(ref, fast)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        max_tc=st.integers(min_value=0, max_value=6),
        infeasible=st.sampled_from(list(InfeasiblePolicy)),
    )
    def test_property_equivalence_under_constraint(
        self, Reference, Fast, seed, max_tc, infeasible
    ):
        # Tight constraints produce +inf-masked (and, under REJECT, all-inf)
        # rows — the hardest tie-break territory for the incremental kernels.
        constraint = TrustConstraint(max_trust_cost=max_tc, infeasible=infeasible)
        scenario, costs = make_case(
            seed, n_tasks=18, n_machines=5, trust_aware=True, constraint=constraint
        )
        avail = np.random.default_rng(seed + 1).uniform(0, 200, size=5)
        ref = Reference().plan(list(scenario.requests), costs, avail.copy())
        fast = Fast().plan(list(scenario.requests), costs, avail.copy())
        assert plans_equal(ref, fast)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_equivalence_with_retry_state(self, Reference, Fast, seed):
        scenario, costs = make_case(seed, n_tasks=16, n_machines=4, trust_aware=True)
        apply_retry_state(scenario, costs, seed)
        ref = Reference().plan(list(scenario.requests), costs, np.zeros(4))
        fast = Fast().plan(list(scenario.requests), costs, np.zeros(4))
        assert plans_equal(ref, fast)


class TestMatrixEquivalence:
    """``mapping_ecc_matrix`` vs stacked ``mapping_ecc_row`` bit-identity
    under the same adversarial states the plan equivalence runs through."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        trust_aware=st.booleans(),
        constrained=st.booleans(),
        with_retry_state=st.booleans(),
    )
    def test_property_bit_identity(self, seed, trust_aware, constrained, with_retry_state):
        constraint = (
            TrustConstraint(
                max_trust_cost=seed % 7,
                infeasible=list(InfeasiblePolicy)[seed % 2],
            )
            if constrained
            else None
        )
        scenario, costs = make_case(seed, 14, 4, trust_aware, constraint=constraint)
        if with_retry_state:
            apply_retry_state(scenario, costs, seed)
        requests = list(scenario.requests)
        reference = BatchHeuristic.mapping_matrix(requests, costs)
        np.testing.assert_array_equal(costs.mapping_ecc_matrix(requests), reference)


class TestRegistryExposure:
    def test_fast_variants_registered(self):
        from repro.scheduling.registry import is_batch, make_heuristic

        for name, Fast in (
            ("max-min", FastMaxMinHeuristic),
            ("sufferage", FastSufferageHeuristic),
        ):
            heuristic = make_heuristic(name)
            assert isinstance(heuristic, Fast)
            assert heuristic.name == name
            assert is_batch(name)

    def test_kernel_labels(self):
        for Fast in (FastMaxMinHeuristic, FastSufferageHeuristic):
            assert Fast.kernel == "vectorized"
        for Reference in (MinMinHeuristic, MaxMinHeuristic, SufferageHeuristic, KpbHeuristic):
            assert Reference.kernel == "reference"

    def test_reference_oracle_hooks(self):
        scenario, costs = make_case(seed=6, n_tasks=6, n_machines=3, trust_aware=True)
        avail = np.zeros(3)
        requests = list(scenario.requests)
        for Fast in (FastMaxMinHeuristic, FastSufferageHeuristic):
            heuristic = Fast()
            assert plans_equal(
                heuristic.plan(requests, costs, avail),
                heuristic._reference_plan(requests, costs, avail),
            )
