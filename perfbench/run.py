"""End-to-end benchmark of the trust-aware RMS.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-batch --seed 0 --seconds 30 --trace 0

Each workload instance runs in a fresh child process, one after another,
so set-up time, peak RSS and the drain are those a user of the program
sees.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` pairs
every traced child with an untraced twin on the same inputs and prints
the per-layer ledger.  The last line of standard output is the result as
one JSON object; a readable summary and a result file with the run
manifest (``.perfbench/results/``) come with it.  The exit code is 0 only
when every correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PINS = HERE / "pins.json"

sys.path.insert(0, str(HERE))

from ledger import LAYER_FUNCTIONS  # noqa: E402
from workloads import WORKLOADS, input_seed  # noqa: E402

#: A child still running this long after the run began is killed and
#: counted as failed, and no child starts after it, so a run always ends
#: within 180 s.  Every run otherwise starts all ``child_count`` children,
#: so two runs with one seed always measure the same inputs.
DEADLINE_S = 170.0
MIB = float(1 << 20)
#: Untraced children per 30 s of ``--seconds``.  Each workload's instance
#: is sized to take about 3 s on a 2-vCPU VM, so a run lasts ~``--seconds``.
CHILDREN_PER_30S = 10

#: End-to-end metrics (untraced children): name → unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "throughput_rps": "req/s",
    "decision_p50_ms": "ms",
    "decision_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Reported beside the end-to-end metrics but not bounded: each is 0 on
#: some workload (no durable state on serve-batch, every request completes
#: on serve-batch and session-trust), and a bound is a share of a non-zero
#: median.
REPORTED = {"durable_mb": "MB", "failed_frac": "ratio"}

#: Derived per-layer metrics (traced children): name → unit.
DERIVED = {
    "setup.import_s": "s",
    "setup.build_s": "s",
    "scheduling.costs.rows_per_request": "ratio",
    "scheduling.engine.batch_size_mean": "count",
    "faults.attempts_per_request": "ratio",
    "grid.agents.publish_ratio": "ratio",
    "service.checkpoint.bytes": "bytes",
    "core.journal.bytes": "bytes",
    "core.store.bytes": "bytes",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for target in LAYER_FUNCTIONS:
        units[f"{target.metric}.calls"] = "count"
        units[f"{target.metric}.self_s"] = "s"
    units.update(DERIVED)
    return units


def child_count(seconds: int, trace: bool) -> int:
    """Children per run: ``CHILDREN_PER_30S`` per 30 s, at least 3.

    The count depends only on the arguments, so one seed always gives the
    same inputs.  A traced run
    spends its time on (untraced, traced) pairs, which cost about twice
    as much.
    """
    n = max(3, round(CHILDREN_PER_30S * seconds / 30))
    return max(2, round(n / 2)) if trace else n


def spawn_child(
    args: list[str], env: dict[str, str], timeout: float
) -> tuple[float, dict | None, str]:
    """Run ``child.py`` once; return (spawn time, parsed output, error).

    With no time left (``timeout <= 0``) the child is not started.
    """
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    spawned = time.monotonic()
    if timeout <= 0:
        return spawned, None, "not started: the run passed its deadline"
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return spawned, None, f"child killed after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        out = None
    if proc.returncode != 0 or out is None or "error" in out:
        detail = (out or {}).get("error") or proc.stderr.strip()[-2000:]
        return spawned, None, f"exit {proc.returncode}: {detail}"
    return spawned, out, ""


def digest_failures(seed: int, digests: list[str], pinned: str | None) -> list[str]:
    """Gate on the settled-record digests of one input seed.

    The traced and untraced children must settle identically, and for
    the pinned seeds (the default ``--seed 0``) match the pinned digest.
    """
    failures = []
    if len(set(digests)) != 1:
        failures.append(f"input seed {seed}: traced and untraced digests differ")
    if pinned is not None and digests[0] != pinned:
        failures.append(
            f"input seed {seed}: digest {digests[0][:16]} != pinned {pinned[:16]}"
        )
    return failures


def child_e2e(spawned: float, out: dict) -> dict[str, float]:
    marks = out["marks"]
    drain = marks["drained"] - marks["ready"]
    counts = out["check"]["counts"]
    return {
        "wall_s": marks["checked"] - spawned,
        "setup_s": marks["ready"] - spawned,
        "drain_s": drain,
        "throughput_rps": out["check"]["settled"] / drain,
        "peak_rss_mb": out["rss_mb"],
        "durable_mb": sum(out["check"]["durable_bytes"].values()) / MIB,
        "failed_frac": (counts["submitted"] - counts["completed"]) / counts["submitted"],
    }


def child_layers(twin: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics of one traced child and its untraced twin."""
    ledger = traced["ledger"]
    calls, self_s = ledger["calls"], ledger["self_s"]
    check = traced["check"]
    counts = check["counts"]
    settled = check["settled"]
    marks = traced["marks"]
    values: dict[str, float] = {}
    for target in LAYER_FUNCTIONS:
        if target.metric in ledger["absent"]:
            continue
        values[f"{target.metric}.calls"] = calls.get(target.metric, 0)
        values[f"{target.metric}.self_s"] = self_s.get(target.metric, 0.0)
    rows = sum(
        calls.get(f"scheduling.costs.{fn}", 0)
        for fn in ("mapping_ecc_row", "realized_ecc_row", "eec_row")
    ) + sum(ledger["rows"].values())
    observed = calls.get("grid.agents.observe_transaction", 0)
    mapped = twin["decision_mapped"]
    durable = check["durable_bytes"]
    twin_drain = twin["marks"]["drained"] - twin["marks"]["ready"]
    values.update(
        {
            "setup.import_s": marks["imported"] - marks["main"],
            "setup.build_s": marks["ready"] - marks["imported"],
            "scheduling.costs.rows_per_request": rows / settled,
            "scheduling.engine.batch_size_mean": sum(mapped) / max(1, len(mapped)),
            "faults.attempts_per_request": (
                counts["completed"] + counts["failed_attempts"]
            ) / settled,
            "grid.agents.publish_ratio": (
                check.get("published", 0) / observed if observed else 0.0
            ),
            "service.checkpoint.bytes": durable.get("service_checkpoint", 0),
            "core.journal.bytes": durable.get("trust_journal", 0),
            "core.store.bytes": durable.get("trust_base", 0),
            "trace.coverage": ledger["covered_s"] / ledger["drain_s"],
            "trace.overhead_s": ledger["drain_s"] - twin_drain,
        }
    )
    return values


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (Linux mountinfo)."""
    best, fstype = "", "unknown"
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return fstype
    target = str(path.resolve())
    for line in lines:
        left, _, right = line.partition(" - ")
        fields = left.split()
        if len(fields) < 5 or not right:
            continue
        mount = fields[4]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, fstype = mount, right.split()[0]
    return fstype


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(WORKLOADS[name], args)
        if result is None:
            return 2
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def run_workload(workload, args) -> dict[str, Any] | None:
    """Run, gate and summarise one workload; None if it cannot start."""
    trace = bool(args.trace)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    run_dir = WORK / f"run-{os.getpid()}"
    trace_dir = WORK / "traces"
    results_dir = WORK / "results"
    pins = json.loads(PINS.read_text()).get(workload.name, {}) if PINS.is_file() else {}

    begun = time.monotonic()
    _, _, error = spawn_child(["--workload", workload.name, "--warmup"], env, DEADLINE_S)
    if error:
        print(f"perfbench: warm-up failed: {error}", file=sys.stderr)
        return None

    n = child_count(args.seconds, trace)
    e2e: list[dict[str, float]] = []
    decisions: list[float] = []
    layers: list[dict[str, float]] = []
    failures: list[str] = []
    attempted = failed = 0
    versions: dict[str, Any] = {}
    digests: dict[str, str] = {}
    children = 0
    try:
        for k in range(n):
            seed = input_seed(args.seed, k)
            base = ["--workload", workload.name, "--seed", str(seed)]
            outs = []
            for traced in (False, True) if trace else (False,):
                extra = ["--workdir", str(run_dir / f"child-{k}-{int(traced)}")]
                if traced:
                    extra += ["--trace", "1"]
                    if k == 0:
                        extra += [
                            "--trace-out",
                            str(trace_dir / f"{workload.name}-seed{args.seed}.json"),
                        ]
                left = DEADLINE_S - (time.monotonic() - begun)
                spawned, out, error = spawn_child(base + extra, env, left)
                shutil.rmtree(run_dir, ignore_errors=True)
                # A request the program drops after its retries is a
                # settled, checked outcome (``failed_frac`` counts it);
                # ``failed`` counts the requests of a child that crashed,
                # was killed or failed its gate.
                attempted += workload.requests
                if out is None:
                    failed += workload.requests
                    failures.append(f"input seed {seed}: {error}")
                    break
                outs.append((spawned, out))
            if len(outs) != (2 if trace else 1):
                continue
            children += 1
            digest = outs[0][1]["check"]["digest"]
            digests[str(seed)] = digest
            wrong = digest_failures(
                seed, [o["check"]["digest"] for _, o in outs], pins.get(str(seed))
            )
            if wrong:
                failures += wrong
                failed += workload.requests
            spawned, twin = outs[0]
            versions = {**twin["versions"], "kernels": twin["kernels"]}
            e2e.append(child_e2e(spawned, twin))
            decisions.extend(twin["decisions_s"])
            if trace:
                layers.append(child_layers(twin, outs[1][1]))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = not failures and children > 0
    summary = summarize(e2e, decisions)
    if trace:
        metrics = layer_metrics(layers)
    else:
        metrics = {
            name: {"value": summary[name], "unit": unit}
            for name, unit in END_TO_END.items()
            if name in summary
        }

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    manifest = {
        "workload": workload.name,
        "why": workload.why,
        "params": workload.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "children": children,
        "input_seeds": sorted(int(s) for s in digests),
        "digests": digests,
        "git_commit": git_commit(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "durable_dir": {
            "path": str(run_dir.relative_to(ROOT)),
            "filesystem": filesystem_of(WORK if WORK.exists() else ROOT),
            "flush_policy": "fsync as shipped (checkpoint: file + directory; "
            "journal: tail on every checkpoint)",
        },
        "arrivals": "open loop, Poisson in simulated time, replayed as fast "
        "as the program runs: generator lateness is 0 by construction",
    }
    print_summary(workload.name, args, summary, metrics, failures, children)
    results_dir.mkdir(parents=True, exist_ok=True)
    out_path = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(
        json.dumps(
            {"manifest": manifest, "result": result, "failures": failures,
             "children": e2e, "summary": summary},
            indent=1,
        )
    )
    return result


def summarize(e2e: list[dict[str, float]], decisions: list[float]) -> dict[str, float]:
    """Medians over the children; decision quantiles over every decision."""
    if not e2e or len(decisions) < 2:
        return {}
    cuts = statistics.quantiles(decisions, n=20, method="inclusive")
    summary = {name: statistics.median(c[name] for c in e2e) for name in e2e[0]}
    summary["decision_p50_ms"] = cuts[9] * 1e3
    summary["decision_p95_ms"] = cuts[18] * 1e3
    summary["decision_samples"] = len(decisions)
    return summary


def layer_metrics(layers: list[dict[str, float]]) -> dict[str, dict[str, Any]]:
    """Median of each per-layer metric over the traced children."""
    metrics = {}
    for name, unit in per_layer_units().items():
        values = [c[name] for c in layers if name in c]
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics


def print_summary(name, args, summary, metrics, failures, children) -> None:
    print(f"== {name}  seed={args.seed}  trace={args.trace}  children={children}")
    if summary:
        samples = summary["decision_samples"]
        for metric, unit in (*END_TO_END.items(), *REPORTED.items()):
            note = f"samples {samples}" if metric.startswith("decision") else f"children {children}"
            if metric in REPORTED:
                note += ", unbounded"
            print(f"  {metric:20s} {summary[metric]:12.4f} {unit:6s} ({note})")
    if args.trace:
        ranked = sorted(
            (k for k in metrics if k.endswith(".self_s")),
            key=lambda k: -metrics[k]["value"],
        )
        for key in ranked[:12]:
            calls = metrics.get(key[: -len("self_s")] + "calls", {}).get("value", 0)
            print(f"  {key:48s} {metrics[key]['value']:9.4f} s  calls {calls:.0f}")
        for key in ("trace.coverage", "trace.overhead_s"):
            if key in metrics:
                print(f"  {key:48s} {metrics[key]['value']:9.4f}")
    for failure in failures:
        print(f"  FAILED {failure}")


if __name__ == "__main__":
    sys.exit(main())
