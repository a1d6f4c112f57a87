"""Span ledger: time calls into the program's layers from outside.

The benchmark never edits the program.  Instead it replaces public
functions with thin wrappers for the length of one run and restores the
originals afterwards:

* a method is wrapped on the class that defines the behaviour callers
  reach (for a heuristic, the class that ``make_heuristic(name)``
  returns), so every instance sees the wrapper;
* a module function is wrapped in every ``repro`` module that holds a
  reference to it, because ``from m import f`` copies the reference into
  the importing module and callers look it up there.

Each wrapped call is a span with a parent (the span that was open when it
started).  A span's self time is its duration minus the time covered by
its child spans, so the self times of nested layers add up to the time
the outermost spans cover, without double counting.

Some wrapped functions only dispatch to other layers (the service's
``serve``, the simulator's ``Event.fire``).  Their self time is whatever
code between them and the next wrapped call does, so it is time the
ledger has not attributed to a named function; ``covered`` leaves it out.
"""

from __future__ import annotations

import functools
import inspect
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = [
    "LAYER_FUNCTIONS",
    "UMBRELLAS",
    "Target",
    "SpanLedger",
    "Patcher",
    "install_ledger",
]


@dataclass(frozen=True)
class Target:
    """One public function of one layer.

    Attributes:
        metric: ``<layer>.<function>``; the ledger reports
            ``<metric>.calls`` and ``<metric>.self_s``.
        owner: ``module:<dotted>`` for a module function,
            ``class:<dotted module>:<Class>`` for a method, or
            ``heuristic:<public name>`` for the kernel class a public
            heuristic name resolves to.
        attr: the function or method name.
        rows_arg: for a function that prices many requests per call, the
            position of the request sequence among its arguments; the
            ledger then also counts priced rows (``<metric>.rows``).
        umbrella: the function dispatches to code of other layers, so its
            self time is unattributed time, not work of its own layer.
    """

    metric: str
    owner: str
    attr: str
    rows_arg: int | None = None
    umbrella: bool = False


_ENGINE = "class:repro.scheduling.engine:SchedulingEngine"
_COSTS = "class:repro.scheduling.costs:CostProvider"
_GRID = "class:repro.grid.topology:Grid"
_SIM = "class:repro.sim.kernel:Simulator"
_TRUST_ENGINE = "class:repro.core.engine:TrustEngine"
_PLANE = "class:repro.core.journal:DurableTrustPlane"

#: Every function the traced run wraps, by layer.  The layer names are the
#: program's module names; README.md says which end-to-end metric each
#: one should move on which workload.
LAYER_FUNCTIONS: tuple[Target, ...] = (
    Target("workloads.materialize", "module:repro.workloads.scenario", "materialize"),
    Target("workloads.range_based_matrix", "module:repro.workloads.eec", "range_based_matrix"),
    Target(
        "workloads.generate_request_stream",
        "module:repro.workloads.requests",
        "generate_request_stream",
    ),
    Target("service.admission.decide", "class:repro.service.admission:AdmissionController", "decide"),
    Target(
        "service.service.serve",
        "class:repro.service.service:GridService",
        "serve",
        umbrella=True,
    ),
    Target("service.service.checkpoint", "class:repro.service.service:GridService", "checkpoint"),
    Target("service.checkpoint.save", "module:repro.service.checkpoint", "save_checkpoint"),
    Target("scheduling.engine.form_batch", _ENGINE, "form_batch"),
    Target("scheduling.engine.submit", _ENGINE, "submit"),
    Target("scheduling.engine.result", _ENGINE, "result"),
    Target("scheduling.kernel.plan", "heuristic:min-min", "plan"),
    Target("scheduling.kernel.choose", "heuristic:mct", "choose"),
    Target("scheduling.costs.mapping_ecc_row", _COSTS, "mapping_ecc_row"),
    Target("scheduling.costs.mapping_ecc_matrix", _COSTS, "mapping_ecc_matrix", rows_arg=1),
    Target("scheduling.costs.mapping_ecc_chunks", _COSTS, "mapping_ecc_chunks"),
    Target("scheduling.costs.realized_ecc_row", _COSTS, "realized_ecc_row"),
    Target("scheduling.costs.eec_row", _COSTS, "eec_row"),
    Target("grid.topology.trust_cost_matrix", _GRID, "trust_cost_matrix"),
    Target("grid.topology.trust_cost_per_machine", _GRID, "trust_cost_per_machine"),
    Target("sim.kernel.run", _SIM, "run"),
    Target("sim.kernel.schedule", _SIM, "schedule"),
    Target("sim.events.fire", "class:repro.sim.events:Event", "fire", umbrella=True),
    Target("faults.attempt_outcome", "class:repro.faults.injector:FaultInjector", "attempt_outcome"),
    Target(
        "grid.agents.observe_transaction",
        "class:repro.grid.agents:DomainTrustAgent",
        "observe_transaction",
    ),
    Target("core.engine.gamma", _TRUST_ENGINE, "gamma"),
    Target("core.engine.gamma_matrix", _TRUST_ENGINE, "gamma_matrix"),
    Target("core.evolution.observe", "class:repro.core.evolution:TrustEvolver", "observe"),
    Target("core.tables.record", "class:repro.core.tables:TrustTable", "record"),
    Target("core.journal.append", _PLANE, "append"),
    Target("core.journal.checkpoint", _PLANE, "checkpoint"),
    Target("core.journal.recover", _PLANE, "recover"),
    Target("core.store.snapshot", "module:repro.core.store", "snapshot_trust_store"),
)

#: Metrics of the dispatching functions whose self time is unattributed.
UMBRELLAS = frozenset(t.metric for t in LAYER_FUNCTIONS if t.umbrella)


class SpanLedger:
    """In-memory span store with online self-time accounting.

    Spans are kept as ``(name, start, duration, parent, self)`` tuples,
    where ``parent`` is the index of the enclosing span (``-1`` at top
    level) and ``self`` its self time, and written out once, at the end,
    as Chrome-trace JSON.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Any] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.rows: dict[str, int] = defaultdict(int)
        # Open spans: [span index, time covered by finished children].
        self._open: list[list] = []

    def wrap(self, name: str, fn: Callable, rows_arg: int | None = None) -> Callable:
        """Return ``fn`` wrapped so each call records one span."""
        clock = self.clock
        spans = self.spans
        open_ = self._open
        calls = self.calls
        self_s = self.self_s
        rows = self.rows

        # The span's clock reads enclose the wrapper's own bookkeeping, so
        # that tracing overhead counts in the span, not in its caller.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            index = len(spans)
            parent = open_[-1][0] if open_ else -1
            spans.append(None)
            if rows_arg is not None:
                rows[name] += len(args[rows_arg])
            frame = [index, 0.0]
            open_.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                calls[name] += 1
                duration = clock() - start
                if open_:
                    open_[-1][1] += duration
                own = duration - frame[1]
                self_s[name] += own
                spans[index] = (name, start, duration, parent, own)

        return traced

    def covered(self, begin: float, end: float, umbrellas: frozenset[str]) -> float:
        """Σ self time of the spans that start in ``[begin, end]``, except
        the self time of the ``umbrellas``.

        This is the part of the window the ledger attributes to a named
        function.  Time spent in code that no wrapped function encloses
        below an umbrella is not in it.
        """
        return sum(
            own
            for (name, start, _duration, _parent, own) in self.spans
            if begin <= start <= end and name not in umbrellas
        )

    def dump_chrome(self, path: Path, origin: float) -> None:
        """Write the spans as Chrome-trace complete events (µs, one track)."""
        events = [
            {
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"span": i, "parent": parent},
            }
            for i, (name, start, duration, parent, _own) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _resolve_owners(owner: str, attr: str) -> list[Any]:
    """Objects whose ``attr`` callers look up, for one target."""
    kind, _, rest = owner.partition(":")
    if kind == "class":
        module, _, cls = rest.partition(":")
        target = getattr(importlib.import_module(module), cls, None)
        return [] if target is None else [target]
    if kind == "heuristic":
        from repro.scheduling.registry import make_heuristic

        return [type(make_heuristic(rest))]
    if kind == "module":
        home = importlib.import_module(rest)
        fn = home.__dict__.get(attr)
        if fn is None:
            return []
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if (name == "repro" or name.startswith("repro."))
            and mod is not None
            and mod.__dict__.get(attr) is fn
        ]
    raise ValueError(f"unknown owner kind in {owner!r}")


class Patcher:
    """Replace attributes for the length of a run; restore them on exit."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any, bool]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> bool:
        """Wrap ``owner.attr`` with ``make(original)``; False if absent."""
        if inspect.isclass(owner):
            raw = inspect.getattr_static(owner, attr, None)
        else:
            raw = owner.__dict__.get(attr)
        if raw is None:
            return False
        own = attr in owner.__dict__
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make(raw.__func__))
        else:
            wrapped = make(raw)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, raw, own))
        return True

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._undo:
            owner, attr, raw, own = self._undo.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)


@contextmanager
def install_ledger(
    ledger: SpanLedger, targets: tuple[Target, ...] = LAYER_FUNCTIONS
) -> Iterator[list[str]]:
    """Wrap every target for the body of the ``with``; yield absent names.

    A target whose function no longer exists is reported in the yielded
    list rather than recorded as zero calls.
    """
    patcher = Patcher()
    absent: list[str] = []
    try:
        for target in targets:
            owners = _resolve_owners(target.owner, target.attr)
            done = [
                patcher.replace(
                    owner,
                    target.attr,
                    lambda fn, t=target: ledger.wrap(t.metric, fn, t.rows_arg),
                )
                for owner in owners
            ]
            if not any(done):
                absent.append(target.metric)
        yield absent
    finally:
        patcher.restore()
