"""Vectorised kernels behind the public ``"max-min"`` and ``"sufferage"`` names.

Following the optimisation discipline of the project's HPC guides — make it
work, make it right, *then* make it fast against a profile — these replace
the per-round Python work of the reference loops with batched and
*incremental* NumPy kernels:

* :class:`FastMaxMinHeuristic` — incremental greedy rounds: each row's
  (best machine, best completion) is maintained across rounds and only the
  rows whose best sat on the committed machine's column are re-minimised,
  instead of re-slicing the whole cost matrix every round;
* :class:`FastSufferageHeuristic` — best/second-best completions for all
  remaining rows via one :func:`numpy.partition` over the live submatrix,
  with per-machine claim resolution done by a single lexsort instead of a
  Python loop over machines.

Both read their costs through the batched
:meth:`~repro.scheduling.costs.CostProvider.mapping_ecc_matrix` assembly
and produce plans **bit-identical** to the reference loops — same
assignments, same order, same tie-breaks — which stay in place, unregistered,
as the oracles (``_reference_plan``) the equivalence suite in
``tests/scheduling/test_fast_equivalence.py`` checks against.  Min-min runs
the sorted claim queues of :mod:`repro.scheduling.scale` instead; heap
formulations of these two measured no faster (Max-min) or slower
(Sufferage) than the rounds here.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.grid.request import Request
from repro.scheduling.base import BatchHeuristic, PlannedAssignment, check_avail
from repro.scheduling.costs import CostProvider
from repro.scheduling.maxmin import MaxMinHeuristic
from repro.scheduling.sufferage import SufferageHeuristic

__all__ = ["FastMaxMinHeuristic", "FastSufferageHeuristic"]


def _incremental_greedy_plan(
    requests: Sequence[Request],
    costs: CostProvider,
    avail: np.ndarray,
) -> list[PlannedAssignment]:
    """Incremental Max-min rounds, bit-identical to the reference.

    Invariant: for every live row, the stored ``(best_machine, best_value)``
    equals a fresh first-index argmin over its current completion row.
    Committing a request only *raises* the chosen machine's availability
    (completions are strictly positive), so rows whose best sits elsewhere
    keep their argmin — only the rows pointing at the committed machine's
    column are re-minimised.  Request selection scans the live positions in
    ascending order, reproducing the reference's first-index tie-break over
    its (always ascending) ``remaining`` list.
    """
    avail = check_avail(avail, costs.grid.n_machines).copy()
    n = len(requests)
    if n == 0:
        return []

    # No completion matrix is maintained: affected rows are re-priced from
    # ``ecc`` plus the *current* avail vector, which is exactly the fresh
    # per-round completion the reference computes.  The equality scratch
    # buffer is hoisted out of the loop (the rounds are numpy-call-overhead
    # bound).
    ecc = costs.mapping_ecc_matrix(requests)
    completion = ecc + avail[None, :]
    on_machine = np.empty(n, dtype=bool)
    positions = np.arange(n)
    best_machine = completion.argmin(axis=1)
    best_value = completion[positions, best_machine]
    del completion
    # Committed rows are retired in place: the selection key is pinned to
    # -inf and the machine to -1.  No live best is ever -inf, so argmax
    # never picks a retired row, and -1 never matches a committed column.
    plan: list[PlannedAssignment] = []

    for order in range(n):
        pick = int(best_value.argmax())
        machine = int(best_machine[pick])
        new_avail = float(best_value[pick])
        best_value[pick] = -np.inf
        best_machine[pick] = -1
        plan.append(PlannedAssignment(requests[pick], machine, order))
        if order == n - 1:
            break
        avail[machine] = new_avail
        np.equal(best_machine, machine, out=on_machine)
        affected = on_machine.nonzero()[0]
        if affected.size:
            sub = ecc.take(affected, axis=0)
            sub += avail
            refreshed = sub.argmin(axis=1)
            best_machine[affected] = refreshed
            best_value[affected] = sub[positions[: affected.size], refreshed]
    return plan


class FastMaxMinHeuristic(BatchHeuristic):
    """Max-min: commit, each round, the request with the largest best-completion.

    Runs as incremental vectorised rounds: identical plans to the reference
    loop, O(n·m) total re-pricing.
    """

    name = "max-min"
    kernel = "vectorized"

    def plan(
        self,
        requests: Sequence[Request],
        costs: CostProvider,
        avail: np.ndarray,
    ) -> list[PlannedAssignment]:
        return _incremental_greedy_plan(requests, costs, avail)

    @staticmethod
    def _reference_plan(requests, costs, avail) -> list[PlannedAssignment]:
        """Oracle: the reference loop this kernel must match bit-for-bit."""
        return MaxMinHeuristic().plan(requests, costs, avail)


class FastSufferageHeuristic(BatchHeuristic):
    """Sufferage: the machine goes to the request that would suffer most without it.

    Runs as one partition plus one lexsort per iteration: identical plans
    to the reference loop.
    """

    name = "sufferage"
    kernel = "vectorized"

    def plan(
        self,
        requests: Sequence[Request],
        costs: CostProvider,
        avail: np.ndarray,
    ) -> list[PlannedAssignment]:
        avail = check_avail(avail, costs.grid.n_machines).copy()
        n = len(requests)
        if n == 0:
            return []

        ecc = costs.mapping_ecc_matrix(requests)
        n_machines = ecc.shape[1]
        remaining = np.arange(n)
        plan: list[PlannedAssignment] = []

        while remaining.size:
            rows = ecc[remaining] + avail[None, :]
            k = rows.shape[0]
            positions = np.arange(k)
            best_machine = np.argmin(rows, axis=1)
            best = rows[positions, best_machine]
            if n_machines == 1:
                second = best
            else:
                second = np.partition(rows, 1, axis=1)[:, 1]
            with np.errstate(invalid="ignore"):
                sufferage = second - best  # NaN only for all-inf (rejected) rows

            # The reference walks positions in ascending order and replaces
            # a machine's claim only on *strictly* greater sufferage, i.e.
            # the winner is the earliest position attaining the group's
            # maximal sufferage — except that a NaN first claimant is never
            # replaced (NaN comparisons are False), so it wins outright.
            suff_key = np.where(np.isnan(sufferage), -np.inf, sufferage)
            by_suff = np.lexsort((positions, -suff_key, best_machine))
            by_pos = np.lexsort((positions, best_machine))
            group_start = np.ones(k, dtype=bool)
            group_start[1:] = best_machine[by_suff[1:]] != best_machine[by_suff[:-1]]
            winners = by_suff[group_start]
            group_start[1:] = best_machine[by_pos[1:]] != best_machine[by_pos[:-1]]
            first_claimants = by_pos[group_start]
            winners = np.where(
                np.isnan(sufferage[first_claimants]), first_claimants, winners
            )

            # Both lexsorts group machines in ascending order, so committing
            # winners in array order reproduces the reference's
            # sorted-by-machine commit order.
            for winner in winners:
                machine = int(best_machine[winner])
                avail[machine] = float(best[winner])
                plan.append(
                    PlannedAssignment(
                        request=requests[int(remaining[winner])],
                        machine_index=machine,
                        order=len(plan),
                    )
                )
            taken = np.zeros(k, dtype=bool)
            taken[winners] = True
            remaining = remaining[~taken]
        return plan

    @staticmethod
    def _reference_plan(requests, costs, avail) -> list[PlannedAssignment]:
        """Oracle: the reference loop this kernel must match bit-for-bit."""
        return SufferageHeuristic().plan(requests, costs, avail)
