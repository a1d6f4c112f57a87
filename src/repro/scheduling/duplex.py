"""Duplex baseline from [10].

Runs Min-min and Max-min on the same meta-request and keeps whichever plan
achieves the smaller believed makespan — cheap insurance against the cases
where either greedy direction degenerates.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.grid.request import Request
from repro.scheduling.base import BatchHeuristic, PlannedAssignment, check_avail
from repro.scheduling.costs import CostProvider

__all__ = ["DuplexHeuristic"]


class DuplexHeuristic(BatchHeuristic):
    """Best-of(Min-min, Max-min) by believed makespan."""

    name = "duplex"

    def __init__(self) -> None:
        # Deferred: the registry imports this module.
        from repro.scheduling.registry import make_heuristic

        self._minmin = make_heuristic("min-min")
        self._maxmin = make_heuristic("max-min")

    def plan(
        self,
        requests: Sequence[Request],
        costs: CostProvider,
        avail: np.ndarray,
    ) -> list[PlannedAssignment]:
        avail = check_avail(avail, costs.grid.n_machines)
        plan_min = self._minmin.plan(requests, costs, avail)
        plan_max = self._maxmin.plan(requests, costs, avail)
        ecc = costs.mapping_ecc_matrix(requests)
        row_of = {id(r): i for i, r in enumerate(requests)}
        if _believed_makespan(plan_min, ecc, row_of, avail) <= _believed_makespan(
            plan_max, ecc, row_of, avail
        ):
            return plan_min
        return plan_max


def _believed_makespan(
    plan: list[PlannedAssignment],
    ecc: np.ndarray,
    row_of: dict[int, int],
    avail: np.ndarray,
) -> float:
    """Largest availability after booking ``plan`` in order at its ECC."""
    rows = [row_of[id(item.request)] for item in plan]
    machines = [item.machine_index for item in plan]
    alphas = np.array(avail, dtype=np.float64, copy=True)
    # ufunc.at accumulates sequentially in plan order, like booking one by one.
    np.add.at(alphas, machines, ecc[rows, machines])
    return float(alphas.max())
