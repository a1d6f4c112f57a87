"""Pin the settled-record digests of the default ``--seed 0`` inputs.

Usage (from the repository root)::

    python3 perfbench/pin.py

Runs one untraced child per input seed of a default run (``--seed 0
--seconds 30``) of every workload and writes the digests to
``perfbench/pins.json``.  Re-pin only after a deliberate change to what
the program outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run as bench
from workloads import WORKLOADS, input_seed


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(bench.SRC), env.get("PYTHONPATH", "")) if p
    )
    pins = {}
    workdir = bench.WORK / f"pin-{os.getpid()}"
    try:
        for name in sorted(WORKLOADS):
            digests = {}
            for k in range(bench.child_count(30, trace=False)):
                seed = input_seed(0, k)
                _, out, error = bench.spawn_child(
                    ["--workload", name, "--seed", str(seed), "--workdir", str(workdir)],
                    env,
                    bench.DEADLINE_S,
                )
                shutil.rmtree(workdir, ignore_errors=True)
                if out is None:
                    print(f"{name} seed {seed}: {error}", file=sys.stderr)
                    return 1
                digests[str(seed)] = out["check"]["digest"]
                print(f"{name} seed {seed}: {digests[str(seed)]}")
            pins[name] = digests
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bench.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
