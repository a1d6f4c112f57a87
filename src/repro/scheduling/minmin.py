"""Min-min (and the shared greedy machinery for Max-min).

"Min-min begins by scheduling the tasks that change the expected machine
available time by the least amount."  (Section 4.1)

Each round computes, for every unassigned request, its best (minimum)
completion cost over all machines, then commits the request whose best
completion is smallest (Min-min) or largest (Max-min), updates the chosen
machine's availability, and repeats until the meta-request is exhausted.

This scalar loop is the frozen oracle, kept unregistered: the public
``"min-min"`` name runs the sorted-claim-queue kernel
(:class:`~repro.scheduling.scale.HeapMinMinHeuristic`), which must
reproduce its plans bit-for-bit, including the lowest-index tie-breaks,
and which hands the smallest batches to this loop.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.grid.request import Request
from repro.scheduling.base import BatchHeuristic, PlannedAssignment, check_avail
from repro.scheduling.costs import CostProvider

__all__ = ["MinMinHeuristic", "greedy_min_completion_plan"]


def greedy_min_completion_plan(
    requests: Sequence[Request],
    costs: CostProvider,
    avail: np.ndarray,
    *,
    prefer_max: bool,
) -> list[PlannedAssignment]:
    """The Min-min / Max-min greedy loop (reference kernel).

    This is the *reference oracle* the registered Min-min and Max-min
    kernels are proven bit-identical to.  Its
    deterministic tie-breaks are part of the contract: the best machine of
    a row is the lowest-index argmin, and among requests tied on the best
    completion the lowest original position wins (``remaining`` stays in
    ascending order, so NumPy's first-index argmin/argmax delivers that).

    Args:
        requests: the meta-request members.
        costs: cost provider (believed ECC rows).
        avail: effective machine availability at batch time.
        prefer_max: False for Min-min, True for Max-min.

    Returns:
        An ordered plan covering every request.
    """
    avail = check_avail(avail, costs.grid.n_machines).copy()
    if not requests:
        return []

    ecc = BatchHeuristic.mapping_matrix(requests, costs)
    remaining = list(range(len(requests)))
    plan: list[PlannedAssignment] = []

    while remaining:
        rows = ecc[remaining]                      # (k, m) believed costs
        completion = rows + avail[None, :]         # completion if mapped now
        best_machine = np.argmin(completion, axis=1)
        best_value = completion[np.arange(len(remaining)), best_machine]
        pick = int(np.argmax(best_value)) if prefer_max else int(np.argmin(best_value))
        req_pos = remaining.pop(pick)
        machine = int(best_machine[pick])
        avail[machine] = float(best_value[pick])
        plan.append(
            PlannedAssignment(
                request=requests[req_pos], machine_index=machine, order=len(plan)
            )
        )
    return plan


class MinMinHeuristic(BatchHeuristic):
    """Commit, each round, the request with the smallest best-completion."""

    name = "min-min"

    def plan(
        self,
        requests: Sequence[Request],
        costs: CostProvider,
        avail: np.ndarray,
    ) -> list[PlannedAssignment]:
        return greedy_min_completion_plan(requests, costs, avail, prefer_max=False)
