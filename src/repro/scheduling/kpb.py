"""K-percent best (KPB) baseline from [10].

For each arriving request, consider only the ``k`` percent of machines with
the lowest execution cost for it, and among that subset pick the earliest
completion.  With ``k = 100`` KPB degenerates to MCT; with
``k = 100 / n_machines`` (subset of one) it degenerates to MET.  The sweet
spot balances task-machine affinity against load.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.grid.request import Request
from repro.scheduling.base import ImmediateHeuristic, check_avail
from repro.scheduling.costs import CostProvider

__all__ = ["KpbHeuristic", "kpb_subset_size"]


def kpb_subset_size(n_machines: int, k_percent: float) -> int:
    """Candidate-subset size for ``k_percent`` over ``n_machines`` machines."""
    return max(1, math.ceil(n_machines * k_percent / 100.0))


class KpbHeuristic(ImmediateHeuristic):
    """Minimum completion cost within the k-percent cheapest machines.

    Tie-breaks are pinned (and frozen by the golden tie-break tests): the
    candidate subset is the first ``subset_size`` machines in ``(cost,
    machine index)`` order — a *stable* selection, so machines tied at the
    subset boundary are admitted lowest-index first — and among candidates
    tied on completion the one earliest in that same order wins.

    Args:
        k_percent: size of the candidate subset, in percent of the machine
            count; must lie in ``(0, 100]``.
    """

    name = "kpb"

    def __init__(self, k_percent: float = 40.0) -> None:
        if not 0.0 < k_percent <= 100.0:
            raise ConfigurationError("k_percent must lie in (0, 100]")
        self.k_percent = k_percent

    def choose(self, request: Request, costs: CostProvider, avail: np.ndarray) -> int:
        avail = check_avail(avail, costs.grid.n_machines)
        ecc = costs.mapping_ecc_row(request)
        subset_size = kpb_subset_size(ecc.shape[0], self.k_percent)
        # The subset_size cheapest machines by execution cost, stable order.
        candidates = np.argsort(ecc, kind="stable")[:subset_size]
        completion = avail[candidates] + ecc[candidates]
        return int(candidates[int(np.argmin(completion))])
