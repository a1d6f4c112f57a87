"""Run one workload instance in a fresh process and report it as JSON.

Started by ``run.py``.  Every time stamp is ``time.monotonic()``, the
clock the parent read just before it spawned this process, so set-up
time can start before the interpreter does.  The last line of standard
output is one JSON object.  Exit codes: 0 checked result, 3 correctness
gate failed.  With ``--warmup`` the child only imports the program, so
the parent can fill the bytecode cache before it times anything.
"""

import time

T_MAIN = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_IMPORTS = {
    "serve-batch": ("repro", "repro.experiments", "repro.service"),
    "serve-durable": ("repro", "repro.experiments", "repro.service", "repro.faults"),
    "session-trust": (
        "repro", "repro.experiments", "repro.grid.session", "repro.core.journal",
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, default=Path("."))
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args(argv)

    import importlib
    from contextlib import nullcontext

    from ledger import UMBRELLAS, Patcher, SpanLedger, install_ledger
    from workloads import WORKLOADS, GateError, make_run

    workload = WORKLOADS[args.workload]
    marks = {"main": T_MAIN}
    for module in _IMPORTS[workload.name]:
        importlib.import_module(module)
    if args.warmup:
        print(json.dumps({"warmup": True}))
        return 0
    import numpy

    from repro.scheduling.engine import SchedulingEngine
    from repro.scheduling.registry import make_heuristic
    from repro.service.service import GridService

    marks["imported"] = time.monotonic()
    clock = time.monotonic
    patcher = Patcher()
    decisions: list[float] = []
    mapped: list[int] = []

    def serve_marker(fn):
        def serve(self, *a, **k):
            marks["ready"] = clock()
            return fn(self, *a, **k)

        return serve

    def decision_timer(fn):
        # Batch decisions are windows that mapped at least one request;
        # immediate decisions are every submit call.
        def timed(self, *a, **k):
            begin = clock()
            out = fn(self, *a, **k)
            elapsed = clock() - begin
            n = out if workload.batch else 1
            if n:
                decisions.append(elapsed)
                mapped.append(n)
            return out

        return timed

    ledger = SpanLedger(clock=clock) if args.trace else None
    run = make_run(workload, args.seed, args.workdir)
    try:
        patcher.replace(GridService, "serve", serve_marker)
        if ledger is None:
            patcher.replace(
                SchedulingEngine,
                "form_batch" if workload.batch else "submit",
                decision_timer,
            )
        with install_ledger(ledger) if ledger else nullcontext([]) as absent:
            run.prepare()
            marks.setdefault("ready", clock())
            run.drain()
            marks["drained"] = clock()
            try:
                check = run.check()
            except GateError as exc:
                print(json.dumps({"error": f"correctness gate: {exc}"}))
                return 3
            marks["checked"] = clock()
    finally:
        patcher.restore()
    out = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "marks": marks,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "decisions_s": decisions,
        "decision_mapped": mapped,
        "check": check,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__},
        "kernels": {
            name: type(make_heuristic(name)).__qualname__ for name in ("min-min", "mct")
        },
    }
    if ledger is not None:
        drain = marks["drained"] - marks["ready"]
        out["ledger"] = {
            "calls": dict(ledger.calls),
            "self_s": dict(ledger.self_s),
            "rows": dict(ledger.rows),
            "absent": absent,
            "covered_s": ledger.covered(marks["ready"], marks["drained"], UMBRELLAS),
            "drain_s": drain,
        }
        if args.trace_out is not None:
            ledger.dump_chrome(args.trace_out, origin=T_MAIN)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
