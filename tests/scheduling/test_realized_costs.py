"""The batched commit pricing ``CostProvider.realized_costs`` ≡ the per-row oracle.

For every planned ``(request, machine)`` the batched accessor must return
exactly — ``==``, never approx — what the scalar ground-truth rows give:
``eec_row(r)[j]``, ``realized_ecc_row(r)[j]`` and ``trust_cost_row(r)[j]``.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import paper_spec
from repro.grid.request import Request, Task
from repro.scheduling.constraints import InfeasiblePolicy, TrustConstraint
from repro.scheduling.costs import CostProvider
from repro.scheduling.esc_models import LadderEsc, TableEsc
from repro.scheduling.policy import SecurityAccounting, TrustPolicy
from repro.trustfaults.model import TrustSourceFault
from repro.trustfaults.query import ResilientTrustSource
from repro.workloads.consistency import Consistency
from repro.workloads.scenario import materialize

POLICIES = {
    "aware": TrustPolicy.aware(),
    "unaware-flat": TrustPolicy.unaware(
        accounting=SecurityAccounting.CONSERVATIVE_FLAT
    ),
    "unaware-pair": TrustPolicy.unaware(
        accounting=SecurityAccounting.PAIR_REALIZED
    ),
    "aware-ladder": TrustPolicy.aware(esc_model=LadderEsc()),
    "aware-table": TrustPolicy.aware(
        esc_model=TableEsc(table=(0.0, 0.05, 0.1, 0.25, 0.4, 0.7, 1.0))
    ),
    "unaware-pair-ladder": TrustPolicy.unaware(
        accounting=SecurityAccounting.PAIR_REALIZED, esc_model=LadderEsc()
    ),
}


@pytest.fixture
def scenario():
    return materialize(paper_spec(48, Consistency.INCONSISTENT), seed=3)


def planned_machines(provider, requests, seed=0):
    """Every machine at least once, the rest at random."""
    m = provider.grid.n_machines
    rng = np.random.default_rng(seed)
    machines = [int(j) for j in rng.integers(0, m, size=len(requests))]
    machines[:m] = range(m)
    return machines


def assert_matches_oracle(provider, requests, machines):
    eec, realized, tc = provider.realized_costs(requests, machines)
    assert eec.tolist() == [
        float(provider.eec_row(r)[j]) for r, j in zip(requests, machines)
    ]
    assert realized.tolist() == [
        float(provider.realized_ecc_row(r)[j]) for r, j in zip(requests, machines)
    ]
    assert tc.tolist() == [
        float(provider.trust_cost_row(r)[j]) for r, j in zip(requests, machines)
    ]


@pytest.mark.parametrize("policy", list(POLICIES.values()), ids=list(POLICIES))
def test_plan_prices_equal_scalar_rows(scenario, policy):
    provider = CostProvider(scenario.grid, scenario.eec, policy)
    requests = scenario.requests
    provider.mapping_ecc_matrix(requests)
    assert_matches_oracle(provider, requests, planned_machines(provider, requests))


@pytest.mark.parametrize("policy", list(POLICIES.values()), ids=list(POLICIES))
def test_unpriced_plan_fills_the_key_cache(scenario, policy):
    """Committing requests no mapping pass priced computes their TC fresh."""
    provider = CostProvider(scenario.grid, scenario.eec, policy)
    requests = scenario.requests
    assert_matches_oracle(provider, requests, planned_machines(provider, requests, 1))


def test_degraded_rows_pay_the_blanket_price_under_blackout(scenario):
    policy = TrustPolicy.aware()
    provider = CostProvider(
        scenario.grid,
        scenario.eec,
        policy,
        trust_source=ResilientTrustSource(
            scenario.grid, fault=TrustSourceFault(blackout=True)
        ),
    )
    requests = scenario.requests
    half = len(requests) // 2
    provider.mapping_ecc_matrix(requests[:half])  # plane fails: degraded
    assert provider.degraded_requests == frozenset(r.index for r in requests[:half])
    machines = planned_machines(provider, requests, 2)
    assert_matches_oracle(provider, requests, machines)
    eec, realized, tc = provider.realized_costs(requests, machines)
    blanket = eec + policy.esc_unaware(eec)
    assert realized[:half].tolist() == blanket[:half].tolist()
    # Ground-truth TC never routes through the failed plane.
    assert tc.tolist() == [
        float(scenario.grid.trust_cost_per_machine(
            r.client_domain_index, r.task.activities.indices
        )[j])
        for r, j in zip(requests, machines)
    ]


def test_retried_requests_use_their_tc_override(scenario):
    grid = scenario.grid
    provider = CostProvider(grid, scenario.eec, TrustPolicy.aware())
    requests = scenario.requests
    provider.mapping_ecc_matrix(requests)
    # Three requests sharing one pricing key: one retried and re-priced, one
    # keeping the shared row, one committed while still dirty.
    by_key = {}
    for r in requests:
        by_key.setdefault(provider._tc_key(r), []).append(r)
    retried, sibling, dirty = next(g for g in by_key.values() if len(g) >= 3)[:3]
    # Trust evolves between the first pricing and the retry's re-pricing.
    cd = retried.client_domain_index
    for rd in range(grid.trust_table.shape[1]):
        for activity in retried.task.activities.indices:
            grid.trust_table.set(cd, rd, activity, "A")
    provider.invalidate_trust_cache(retried.index)
    provider.exclude(retried.index, 0)
    provider.mapping_ecc_matrix([retried])  # re-prices into an override
    override = provider.trust_cost_row(retried)
    shared = provider.trust_cost_row(sibling)
    moved = np.flatnonzero(override != shared)
    assert moved.size
    provider.invalidate_trust_cache(dirty.index)
    machines = planned_machines(provider, requests, 3)
    pos, sibling_pos, dirty_pos = (
        requests.index(r) for r in (retried, sibling, dirty)
    )
    machines[pos] = machines[sibling_pos] = machines[dirty_pos] = int(moved[0])
    _eec, _realized, tc = provider.realized_costs(requests, machines)
    assert tc[pos] == override[moved[0]]
    assert tc[sibling_pos] == shared[moved[0]]
    assert tc[dirty_pos] == override[moved[0]]  # fresh, not the stale shared row
    assert_matches_oracle(provider, requests, machines)


def test_relaxed_constraint_commits_pay_true_cost(scenario):
    provider = CostProvider(
        scenario.grid,
        scenario.eec,
        TrustPolicy.aware(),
        constraint=TrustConstraint(1, InfeasiblePolicy.RELAX),
    )
    requests = scenario.requests
    rows = provider.mapping_ecc_matrix(requests)
    assert np.isinf(rows).any()
    machines = planned_machines(provider, requests, 4)
    assert_matches_oracle(provider, requests, machines)
    _eec, realized, _tc = provider.realized_costs(requests, machines)
    assert np.isfinite(realized).all()


def test_task_index_is_range_checked(scenario):
    provider = CostProvider(scenario.grid, scenario.eec, TrustPolicy.aware())
    inside = scenario.requests[0]
    outside = Request(
        index=999,
        client=inside.client,
        task=Task(index=999, activities=inside.task.activities),
        arrival_time=0.0,
    )
    with pytest.raises(ConfigurationError, match="task index 999"):
        provider.realized_costs([inside, outside], [0, 0])


def test_empty_plan(scenario):
    provider = CostProvider(scenario.grid, scenario.eec, TrustPolicy.aware())
    assert [a.shape for a in provider.realized_costs([], [])] == [(0,)] * 3
