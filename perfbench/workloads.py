"""The benchmark's three workloads, their inputs and their correctness gate.

All three are open-loop Poisson arrival streams in *simulated* time,
replayed as fast as the program runs.  There is no wall-clock send
schedule, so the generator is never late: a stall delays the drain, and
the drain time is what ``throughput_rps`` divides by.

This module runs inside the child process (see ``child.py``); it imports
``repro`` lazily so the parent never pays for it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["Workload", "WORKLOADS", "input_seed", "make_run", "GateError"]


class GateError(Exception):
    """A correctness check on a workload's output failed."""


@dataclass(frozen=True)
class Workload:
    """One workload.

    Attributes:
        name: the ``--workload`` name.
        why: one line on what the workload exercises and bypasses.
        batch: True when decisions are ``form_batch`` windows, False when
            they are ``submit`` calls of an immediate heuristic.
        params: the workload's fixed parameters (recorded in the manifest).
    """

    name: str
    why: str
    batch: bool
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def requests(self) -> int:
        """Requests one instance submits."""
        p = self.params
        return p["n_tasks"] if "n_tasks" in p else p["rounds"] * p["requests_per_round"]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "serve-batch",
            "paper 5.3 scenario through the service with min-min: ECC pricing, "
            "batch kernel and DES dispatch; no faults, no durable state",
            batch=True,
            params={
                "scenario": "paper_spec(inconsistent, LoLo, 5 machines)",
                "n_tasks": 20000,
                "heuristic": "min-min",
                "policy": "aware",
                "admission": "unlimited",
            },
        ),
        Workload(
            "serve-durable",
            "same scenario with 5% task crashes, retries and boundary "
            "checkpoints persisted: the service's durable write path",
            batch=True,
            params={
                "scenario": "paper_spec(inconsistent, LoLo, 5 machines)",
                "n_tasks": 8000,
                "heuristic": "min-min",
                "policy": "aware",
                "admission": "unlimited",
                "crash_prob": 0.05,
                "retry": "RetryPolicy() default: 3 attempts, failed machine excluded",
                "checkpoint_every": 10,
            },
        ),
        Workload(
            "session-trust",
            "Figure-1 GridSession loop with gamma-blended agents and a "
            "journalled trust plane: the only workload on the trust plane",
            batch=False,
            params={
                "machines": 16,
                "client_domains": 8,
                "resource_domains": 8,
                "heuristic": "mct",
                "policy": "aware",
                "gamma_weights": [0.7, 0.3],
                "score_clients": True,
                "rounds": 10,
                "requests_per_round": 500,
            },
        ),
    )
}


def input_seed(run_seed: int, child: int) -> int:
    """Seed of the inputs of child ``child`` of a run with ``run_seed``."""
    if run_seed < 0:
        raise ValueError("--seed must be non-negative")
    return run_seed * 1000 + child


def _sha256(obj: Any) -> str:
    # json renders floats with repr, which round-trips exactly.
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def _schedule_rows(schedule) -> dict[str, Any]:
    return {
        "records": [
            [
                r.request_index, r.machine_index, r.mapped_time, r.start_time,
                r.completion_time, r.realized_cost, r.trust_cost, r.attempt,
            ]
            for r in schedule.records
        ],
        "rejected": sorted(
            [int(k), v] for k, v in schedule.rejection_reasons.items()
        ),
        "dropped": sorted(int(i) for i in schedule.dropped),
        "failures": [
            [f.request_index, f.machine_index, f.attempt, f.failure_time]
            for f in schedule.failures
        ],
    }


def settle_accounting(schedule, indices: set[int], n_machines: int) -> dict[str, int]:
    """Check that every request settled exactly once; return the counts.

    ``completed + rejected + shed + dropped`` must equal the submitted
    requests, with no request in two outcomes and none missing.  Every
    completion record must also be causally ordered.
    """
    from repro.scheduling.engine import REASON_CONSTRAINT

    completed = [r.request_index for r in schedule.records]
    reasons = dict(schedule.rejection_reasons)
    dropped = list(schedule.dropped)
    outcomes = completed + list(reasons) + dropped
    if len(outcomes) != len(set(outcomes)):
        raise GateError("a request settled more than once")
    if set(outcomes) != indices:
        missing = len(indices - set(outcomes))
        raise GateError(f"{missing} submitted requests never settled")
    for r in schedule.records:
        if not (0 <= r.machine_index < n_machines):
            raise GateError(f"request {r.request_index} on machine {r.machine_index}")
        if not (
            r.arrival_time <= r.mapped_time <= r.start_time < r.completion_time
        ):
            raise GateError(f"request {r.request_index} has out-of-order times")
        if not r.realized_cost > 0 or r.attempt < 1:
            raise GateError(f"request {r.request_index} has a bad cost/attempt")
    shed = sum(1 for v in reasons.values() if v != REASON_CONSTRAINT)
    return {
        "submitted": len(indices),
        "completed": len(completed),
        "rejected": len(reasons) - shed,
        "shed": shed,
        "dropped": len(dropped),
        "failed_attempts": len(schedule.failures),
    }


def retry_accounting(schedule, max_attempts: int) -> None:
    """Check the retry path of a run with task crashes.

    A request completed on attempt ``a`` must have failed attempts
    ``1 .. a-1`` on record, and a dropped request exactly ``1 ..
    max_attempts``: the retry policy ran each request out, no further.
    """
    failed: dict[int, list[int]] = {}
    for f in schedule.failures:
        failed.setdefault(f.request_index, []).append(f.attempt)
    for r in schedule.records:
        if sorted(failed.get(r.request_index, [])) != list(range(1, r.attempt)):
            raise GateError(f"request {r.request_index}: retry attempts out of order")
    for index in schedule.dropped:
        if sorted(failed.get(index, [])) != list(range(1, max_attempts + 1)):
            raise GateError(f"request {index} was dropped before its last attempt")


def _dir_bytes(root: Path, pattern: str = "**/*") -> int:
    return sum(p.stat().st_size for p in root.glob(pattern) if p.is_file())


class _Run:
    """One prepared workload instance inside a child process.

    ``prepare`` builds everything up to the first arrival, ``drain`` serves
    the whole stream and leaves the durable state on disk, ``check`` runs
    the correctness gate and returns the outcome record.
    """

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        from repro.experiments import paper_policies

        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.p = workload.params
        self.aware, _ = paper_policies()


class ServeRun(_Run):
    """``serve-batch`` / ``serve-durable``: a scenario through the service."""

    def prepare(self) -> None:
        import repro.workloads.scenario as scenario_mod
        from repro.experiments import paper_spec
        from repro.workloads import Consistency

        spec = paper_spec(self.p["n_tasks"], Consistency.INCONSISTENT)
        self.scenario = scenario_mod.materialize(spec, seed=self.seed)

    def drain(self) -> None:
        import repro.service.checkpoint as checkpoint_mod
        from repro.service import replay_scenario

        kwargs: dict[str, Any] = {}
        if "crash_prob" in self.p:
            from repro.faults import FaultModel, RetryPolicy, TaskFailureModel

            kwargs = dict(
                faults=FaultModel(
                    tasks=TaskFailureModel(default_crash_prob=self.p["crash_prob"])
                ),
                fault_seed=self.seed,
                retry=RetryPolicy(),
                checkpoint_every=self.p["checkpoint_every"],
            )
        self.retry = kwargs.get("retry")
        self.result = replay_scenario(
            self.scenario, self.p["heuristic"], self.aware, **kwargs
        )
        self.checkpoint_path = None
        if self.result.checkpoint_payloads:
            self.workdir.mkdir(parents=True, exist_ok=True)
            self.checkpoint_path = checkpoint_mod.save_checkpoint(
                self.result.checkpoint_payloads[-1],
                self.workdir / "service-checkpoint.json",
            )

    def check(self) -> dict[str, Any]:
        result = self.result
        schedule = result.schedule
        indices = {r.index for r in self.scenario.requests}
        counts = settle_accounting(schedule, indices, self.scenario.grid.n_machines)
        if result.submitted != len(indices) or result.admitted != len(indices):
            raise GateError("unlimited admission refused a request")
        if self.retry is not None:
            retry_accounting(schedule, self.retry.max_attempts)
        durable: dict[str, int] = {"service_checkpoint": 0}
        every = self.p.get("checkpoint_every")
        if every is not None:
            if result.checkpoints != result.windows // every:
                raise GateError(
                    f"{result.checkpoints} checkpoints over {result.windows} windows"
                )
            if self.checkpoint_path is None:
                raise GateError("no checkpoint was persisted")
            durable["service_checkpoint"] = self.checkpoint_path.stat().st_size
        elif result.checkpoints:
            raise GateError("a checkpoint was taken without checkpoint_every")
        return {
            "digest": _sha256(_schedule_rows(schedule)),
            "counts": counts,
            "settled": len(indices),
            "durable_bytes": durable,
        }


class SessionRun(_Run):
    """``session-trust``: the Figure-1 loop over a journalled trust plane."""

    def prepare(self) -> None:
        import repro.workloads.scenario as scenario_mod
        from repro.grid.agents import AgentFleet
        from repro.grid.behavior import BehaviorModel, StationaryBehavior
        from repro.grid.session import GridSession
        from repro.workloads import ScenarioSpec

        p = self.p
        spec = ScenarioSpec(
            n_tasks=1,
            n_machines=p["machines"],
            cd_range=(p["client_domains"],) * 2,
            rd_range=(p["resource_domains"],) * 2,
        )
        grid = scenario_mod.materialize(spec, seed=self.seed).grid
        # Half the resource domains behave well and half poorly, so the
        # published levels move and trust-aware pricing has to follow them.
        behavior = BehaviorModel(
            profiles={
                j: StationaryBehavior(mean=0.9 if j % 2 == 0 else 0.45)
                for j in range(p["resource_domains"])
            }
        )
        fleet = AgentFleet.for_table(
            grid.trust_table, gamma_weights=tuple(p["gamma_weights"])
        )
        self.session = GridSession(
            grid=grid,
            behavior=behavior,
            policy=self.aware,
            heuristic=p["heuristic"],
            seed=self.seed,
            fleet=fleet,
            score_clients=p["score_clients"],
        )
        self.plane_root = self.workdir / "trust-plane"
        self.session.journal_trust(self.plane_root)

    def drain(self) -> None:
        self.rounds = []
        for _ in range(self.p["rounds"]):
            self.rounds.append(self.session.run_round(self.p["requests_per_round"]))
            self.session.checkpoint_trust()

    def check(self) -> dict[str, Any]:
        from repro.core.journal import DurableTrustPlane

        session = self.session
        n = self.p["requests_per_round"]
        totals: dict[str, int] = {}
        for round_ in self.rounds:
            counts = settle_accounting(
                round_.schedule, set(range(n)), session.grid.n_machines
            )
            for key, value in counts.items():
                totals[key] = totals.get(key, 0) + value
        live = session.trust_plane
        live.close()
        recovered = DurableTrustPlane.recover(self.plane_root)
        try:
            live_records = _table_records(live.table)
            if _table_records(recovered.table) != live_records:
                raise GateError("recovered trust records differ from the live plane")
            if recovered.grid_table.levels.tobytes() != live.grid_table.levels.tobytes():
                raise GateError("recovered published levels differ from the live plane")
        finally:
            recovered.close()
        digest = _sha256(
            {
                "rounds": [
                    [_sha256(_schedule_rows(r.schedule)), r.published_updates]
                    for r in self.rounds
                ],
                "levels": live.grid_table.levels.ravel().tolist(),
                "records": live_records,
            }
        )
        return {
            "digest": digest,
            "counts": totals,
            "settled": n * len(self.rounds),
            "durable_bytes": {
                "trust_base": _dir_bytes(self.plane_root, "base-*/**/*")
                + _dir_bytes(self.plane_root, "CURRENT"),
                "trust_journal": _dir_bytes(self.plane_root, "journal-*.wal"),
            },
            "published": sum(r.published_updates for r in self.rounds),
        }


def make_run(workload: Workload, seed: int, workdir: Path) -> _Run:
    """The instance of ``workload`` on the inputs of ``seed``."""
    runner = SessionRun if workload.name == "session-trust" else ServeRun
    return runner(workload, seed, workdir)


def _table_records(table) -> list[list]:
    return sorted(
        [
            str(truster), str(trustee), context.name, rec.value,
            rec.last_transaction, rec.transaction_count,
        ]
        for (truster, trustee, context), rec in table.items()
    )
