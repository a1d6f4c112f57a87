"""Min-min kernel: per-machine sorted claim queues over streaming assembly.

This is the kernel behind the public ``"min-min"`` name.  The reference
loop (:class:`~repro.scheduling.minmin.MinMinHeuristic`) re-minimises every
remaining row each round, and incremental vectorised rounds (as Max-min
runs) rescan an O(n) array per commit.  Here the claim structures are
*static-key* per-machine queues, which make exact tie-breaks affordable at
any batch size.  A naive lazy heap over per-row bests churns: committing a
task nudges one machine's availability, staling every queued row priced
against it (measured ~227 re-prices/row at n=10⁴).  Keying each machine's
queue by the *static* ``ecc[row, machine]`` instead makes a whole queue's
current completions one shared ``+ avail[machine]`` away, so entries never
need re-keying when availability moves.

Min-min's global commit decomposes exactly: the next commit is the
lexicographic minimum over machines of (candidate completion, candidate
position, machine), where machine ``M``'s candidate is its first
uncommitted row in static ``ecc[:, M]`` order (stable sort, so value ties
surface lowest-position-first — the frozen tie-break).  Realised as ``m``
sorted columns consumed by monotone pointers: **zero re-pricing ever**,
O(nm log n) total work, O(m) per round.  Columns are filled from the
streaming :meth:`~repro.scheduling.costs.CostProvider.mapping_ecc_chunks`
iterator, so the dense assembly intermediates never materialise; this is
also the 10⁶-task path.

Max-min and Sufferage do not decompose per machine (the max of row-minima
is not readable from column tops), so their public names run the
vectorised kernels in :mod:`repro.scheduling.fast`.

Bit-identity with the reference oracle is proven by
``tests/scheduling/test_scale_equivalence.py`` (hypothesis, including
constraints, retry exclusions, mid-run invalidation and adversarial chunk
sizes) and the n=10⁴ hash golden in
``tests/scheduling/test_tiebreaks_golden.py``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.grid.request import Request
from repro.scheduling.base import BatchHeuristic, PlannedAssignment, check_avail
from repro.scheduling.costs import CostProvider
from repro.scheduling.minmin import MinMinHeuristic, greedy_min_completion_plan

__all__ = ["HeapMinMinHeuristic"]

#: Batches of at most this many requests run the reference greedy loop
#: instead of the claim queues: for them the per-machine sorts and the
#: batched assembly cost more than the few rounds they save.  Measured on
#: the 5-machine service workloads, where retry windows are this small
#: (serve-durable's median window holds 2 requests) and the queues took
#: about twice as long as the loop; from ~8 requests up the queues win.
SMALL_BATCH = 4


def _sorted_column_min_plan(
    requests: Sequence[Request],
    costs: CostProvider,
    avail: np.ndarray,
    chunk_size: int | None,
) -> list[PlannedAssignment]:
    """Min-min as per-machine sorted claim queues — zero re-pricing.

    Correctness: the global minimum completion over all (row, machine)
    pairs is attained by the winning row *on its own first-argmin
    machine*, so the lexicographic minimum over machines of (candidate
    value, candidate position, machine index) — candidate = first
    uncommitted row in static per-column order — is exactly the
    reference's (lowest best, lowest position, first-argmin) commit.
    Ties inside a column surface lowest-position-first via the stable
    sort; ties across columns resolve by position then machine index.
    """
    n = len(requests)
    m = costs.grid.n_machines
    # Transpose the streaming chunks into per-machine columns; no dense
    # row-major matrix (nor the one-shot assembly intermediates) exists.
    cols: list[np.ndarray] = [np.empty(n, dtype=np.float64) for _ in range(m)]
    for start, chunk in costs.mapping_ecc_chunks(requests, chunk_size=chunk_size):
        stop = start + chunk.shape[0]
        for j in range(m):
            cols[j][start:stop] = chunk[:, j]
    orders: list[np.ndarray] = []
    for j in range(m):
        idx = np.argsort(cols[j], kind="stable")
        cols[j] = cols[j][idx]
        orders.append(idx)

    committed = bytearray(n)
    ptr = [0] * m
    avail_f = [float(avail[j]) for j in range(m)]
    cand_pos = [-1] * m
    cand_val = [0.0] * m

    def reload(j: int) -> None:
        """Advance machine j past committed rows and refresh its candidate."""
        p = ptr[j]
        order = orders[j]
        while p < n and committed[order[p]]:
            p += 1
        ptr[j] = p
        if p == n:
            cand_pos[j] = -1
        else:
            cand_pos[j] = int(order[p])
            cand_val[j] = float(cols[j][p]) + avail_f[j]

    for j in range(m):
        reload(j)

    plan: list[PlannedAssignment] = []
    for _ in range(n):
        win_v = 0.0
        win_p = -1
        win_j = -1
        for j in range(m):
            p = cand_pos[j]
            if p < 0:
                continue
            v = cand_val[j]
            if win_p < 0 or v < win_v or (v == win_v and p < win_p):
                win_v, win_p, win_j = v, p, j
        committed[win_p] = 1
        avail_f[win_j] = win_v
        plan.append(
            PlannedAssignment(
                request=requests[win_p], machine_index=win_j, order=len(plan)
            )
        )
        for j in range(m):
            if cand_pos[j] == win_p or j == win_j:
                reload(j)
    return plan


class HeapMinMinHeuristic(BatchHeuristic):
    """Min-min: commit, each round, the request with the smallest best-completion.

    Runs as sorted per-machine claim queues (the reference loop for
    batches of at most :data:`SMALL_BATCH` requests): identical plans to
    the reference loop, O(m) per round.

    Args:
        chunk_size: tasks per streaming-assembly chunk (``None`` uses
            :data:`~repro.scheduling.costs.DEFAULT_CHUNK_TASKS`).
    """

    name = "min-min"
    kernel = "heap"

    def __init__(self, chunk_size: int | None = None) -> None:
        self.chunk_size = chunk_size

    def plan(
        self,
        requests: Sequence[Request],
        costs: CostProvider,
        avail: np.ndarray,
    ) -> list[PlannedAssignment]:
        if len(requests) <= SMALL_BATCH:
            return greedy_min_completion_plan(requests, costs, avail, prefer_max=False)
        avail = check_avail(avail, costs.grid.n_machines)
        return _sorted_column_min_plan(requests, costs, avail, self.chunk_size)

    @staticmethod
    def _reference_plan(requests, costs, avail) -> list[PlannedAssignment]:
        """Oracle: the reference loop this kernel must match bit-for-bit."""
        return MinMinHeuristic().plan(requests, costs, avail)
