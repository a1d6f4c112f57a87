"""The always-on grid scheduling service.

:class:`GridService` wraps a configured
:class:`~repro.scheduling.scheduler.TRMScheduler` and runs it as a
long-lived system instead of a one-shot batch experiment:

* an **ingestion plane** (:mod:`repro.service.admission`) decides, per
  arrival, whether the request is admitted to the scheduler or shed with a
  typed reason (queue full, rate limited, backpressure, draining);
* a **rolling window** fires every ``window_interval`` simulated seconds —
  for batch heuristics it is the meta-request formation tick, reusing the
  incremental fast kernels across windows; for immediate heuristics it
  only carries the service housekeeping;
* **backpressure** (:mod:`repro.service.backpressure`) latches when the
  unsettled backlog crosses a watermark and pushes back on ingestion;
* a **watchdog** trips on windows that blow their wall-clock budget or on
  a backlog that stops making progress;
* **checkpoints** at window boundaries capture the complete service state
  (:mod:`repro.service.checkpoint`) so a crash between windows resumes
  with settled-exactly-once accounting.  A boundary checkpoint is kept as
  a *mark* — the in-flight state plus the lengths of the engine's
  append-only settled ledgers — and becomes a self-contained payload only
  when it is read, so taking one costs what is in flight, not what has
  settled.

The service is *equivalence-preserving by construction*: with unlimited
admission and no kills it drives the shared
:class:`~repro.scheduling.engine.SchedulingEngine` through the exact event
sequence of ``TRMScheduler.run`` (same priorities, same tie-breaks, same
accumulated window floats), so the cumulative schedule is bit-identical to
the batch run — a property the service test suite pins on the full
Table-6 workload.
"""

from __future__ import annotations

import copy
import time as _time
from collections import Counter as _Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import islice
from typing import Any

from repro.errors import (
    CheckpointError,
    ConfigurationError,
    SchedulingError,
    ServiceError,
    ServiceKilled,
    ServiceStalled,
)
from repro.faults.records import FailureEvent, FailureKind
from repro.grid.request import Request
from repro.scheduling.engine import SchedulingEngine
from repro.scheduling.result import CompletionRecord, ScheduleResult
from repro.scheduling.scheduler import TRMScheduler
from repro.service.admission import AdmissionController, AdmissionPolicy, ShedReason
from repro.service.backpressure import BackpressureLatch
from repro.service.checkpoint import (
    CHECKPOINT_SCHEMA,
    attach_trust_journal,
    validate_checkpoint,
    verify_trust_journal,
)
from repro.sim.events import Event, EventPriority
from repro.sim.kernel import Simulator

__all__ = [
    "WatchdogConfig",
    "ServiceConfig",
    "ServiceResult",
    "GridService",
    "DEFAULT_WINDOW_INTERVAL",
]

#: Window period used for immediate heuristics when none is configured
#: (batch heuristics always use their ``batch_interval``).
DEFAULT_WINDOW_INTERVAL = 600.0


@dataclass(frozen=True)
class WatchdogConfig:
    """Stuck-window detection.

    Attributes:
        window_wall_budget_s: wall-clock budget for one window's batch
            mapping; a window exceeding it trips the watchdog.
        stall_window_limit: consecutive windows with a non-empty backlog
            and no settling progress that trip the watchdog.
        fail_fast: raise :class:`~repro.errors.ServiceStalled` on a trip
            instead of only counting it.
    """

    window_wall_budget_s: float = 5.0
    stall_window_limit: int = 64
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if self.window_wall_budget_s <= 0:
            raise ConfigurationError("window_wall_budget_s must be positive")
        if self.stall_window_limit < 1:
            raise ConfigurationError("stall_window_limit must be >= 1")


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of one :class:`GridService`.

    Attributes:
        admission: the ingestion plane's policy; defaults to unlimited
            (admit everything — the equivalence configuration).
        window_interval: rolling-window period for *immediate* heuristics
            (batch heuristics use the scheduler's ``batch_interval``);
            defaults to :data:`DEFAULT_WINDOW_INTERVAL`.
        backpressure_high: backlog size engaging the backpressure latch;
            ``None`` disables backpressure.
        backpressure_low: backlog size releasing it (defaults to half of
            ``backpressure_high``).
        watchdog: stuck-window detection settings.
    """

    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy.unlimited)
    window_interval: float | None = None
    backpressure_high: int | None = None
    backpressure_low: int | None = None
    watchdog: WatchdogConfig = field(default_factory=WatchdogConfig)

    def __post_init__(self) -> None:
        if self.window_interval is not None and self.window_interval <= 0:
            raise ConfigurationError("window_interval must be positive")
        if self.backpressure_low is not None and self.backpressure_high is None:
            raise ConfigurationError(
                "backpressure_low needs backpressure_high"
            )


@dataclass(frozen=True)
class ServiceResult:
    """Outcome of one service run.

    Attributes:
        schedule: the cumulative schedule over every settled request —
            for unlimited admission without kills, bit-identical to the
            batch ``TRMScheduler`` result on the same workload.
        submitted: requests that reached the ingestion plane.
        admitted: requests that passed admission into the scheduler.
        shed: shed-reason tag → count for ingestion-refused requests.
        windows: rolling windows completed.
        watchdog_trips: stuck-window detections.
        checkpoints: boundary checkpoints taken.
        backpressure_engagements: times the backpressure latch engaged.
        backpressure_releases: times it released.
        checkpoint_payloads: the boundary checkpoints themselves, in the
            order taken (``checkpoint_every`` runs only) — a read-only
            sequence that builds each v1 payload when it is indexed
            (negative indices included); every read returns a fresh dict.
            It reads the run's engine ledgers, so a result keeps its
            service alive; it compares equal to any sequence of equal
            payloads, and pickling or deep-copying it yields a plain tuple
            of payloads.
    """

    schedule: ScheduleResult
    submitted: int
    admitted: int
    shed: dict[str, int]
    windows: int
    watchdog_trips: int
    checkpoints: int
    backpressure_engagements: int
    backpressure_releases: int
    checkpoint_payloads: Sequence[dict] = ()

    @property
    def shed_total(self) -> int:
        """Requests refused by the ingestion plane (all reasons)."""
        return sum(self.shed.values())

    def summary(self) -> dict[str, Any]:
        """Headline service accounting (includes the schedule summary)."""
        return {
            **self.schedule.summary(),
            "service": {
                "submitted": self.submitted,
                "admitted": self.admitted,
                "shed": dict(sorted(self.shed.items())),
                "windows": self.windows,
                "watchdog_trips": self.watchdog_trips,
                "checkpoints": self.checkpoints,
                "backpressure_engagements": self.backpressure_engagements,
            },
        }


class GridService:
    """An always-on scheduling service over one configured scheduler.

    A service instance is **single-shot**: it owns its scheduler's mutable
    state (cost-provider exclusions, trust-source clock) for exactly one
    :meth:`serve` *or* :meth:`resume` call.  To restore a checkpoint,
    construct a fresh, identically-configured scheduler and service and
    call :meth:`resume` on it.

    Args:
        scheduler: the configured batch driver to run as a service.
        config: service-plane configuration; defaults to unlimited
            admission, no backpressure, counting watchdog.
        trust_plane: optional :class:`~repro.core.journal.DurableTrustPlane`
            whose delta checkpoints ride along in every service
            checkpoint (``trust_journal`` sidecar) — the hot path then
            fsyncs only the journal tail, never the full store.  On
            :meth:`resume`, the plane must sit exactly at the sidecar's
            pinned generation/offset (recover it through
            :func:`~repro.service.checkpoint.resolve_trust_journal`).
    """

    def __init__(
        self,
        scheduler: TRMScheduler,
        config: ServiceConfig | None = None,
        trust_plane: Any = None,
    ) -> None:
        self.scheduler = scheduler
        self.config = config if config is not None else ServiceConfig()
        self.trust_plane = trust_plane
        self.metrics = scheduler.metrics
        self.admission = AdmissionController(self.config.admission)
        self.latch = (
            BackpressureLatch(
                self.config.backpressure_high, self.config.backpressure_low
            )
            if self.config.backpressure_high is not None
            else None
        )
        if scheduler.batch_interval is not None:
            self.interval = scheduler.batch_interval
        else:
            self.interval = (
                self.config.window_interval
                if self.config.window_interval is not None
                else DEFAULT_WINDOW_INTERVAL
            )
        self._batch_mode = scheduler.batch_interval is not None
        self._served = False
        # Per-run state, bound by _bind().
        self._sim: Simulator | None = None
        self._engine: SchedulingEngine | None = None
        self._requests: Sequence[Request] = ()
        self._total = 0
        self._epoch = 0
        self._next_window = self.interval
        self._submitted = 0
        self._admitted = 0
        self._shed: _Counter[str] = _Counter()
        self._watchdog_trips = 0
        self._stalled_windows = 0
        self._last_settled = 0
        self._marks: list[_Mark] = []
        #: Exclusions frozen when the run stops, so reading a mark later
        #: does not see a reused scheduler's cost provider.
        self._final_exclusions: dict[int, frozenset[int]] | None = None
        self._kill_after: int | None = None
        self._checkpoint_every: int | None = None

    # -- lifecycle -----------------------------------------------------------

    def serve(
        self,
        requests: Sequence[Request],
        *,
        kill_after_window: int | None = None,
        checkpoint_every: int | None = None,
    ) -> ServiceResult:
        """Run the service over ``requests`` until everything settles.

        Args:
            requests: the workload; arrival times drive ingestion.
            kill_after_window: crash emulation — raise
                :class:`~repro.errors.ServiceKilled` (carrying the
                boundary checkpoint) once this many windows completed.
            checkpoint_every: take a checkpoint every N windows; taken
                checkpoints accumulate on :attr:`checkpoints` as marks.

        Returns:
            The :class:`ServiceResult`; its ``schedule`` accounts for
            every submitted request exactly once (completed, shed/
            rejected, or dropped).
        """
        engine, sim = self._begin(
            requests, kill_after_window, checkpoint_every
        )
        for request in requests:
            sim.schedule(
                request.arrival_time,
                self._on_arrival,
                priority=EventPriority.ARRIVAL,
                payload=request,
            )
        if self._total > 0:
            sim.schedule(
                self.interval, self._on_window, priority=EventPriority.BATCH
            )
            engine.start_machine_watch()
        return self._drive()

    def resume(
        self,
        checkpoint: dict,
        requests: Sequence[Request],
        *,
        kill_after_window: int | None = None,
        checkpoint_every: int | None = None,
    ) -> ServiceResult:
        """Restore ``checkpoint`` and run the remainder of ``requests``.

        The service must be freshly constructed and configured identically
        to the one that took the checkpoint (same heuristic, policy,
        window interval, machine count, trust table epoch) — mismatches
        raise :class:`~repro.errors.CheckpointError`.  Settled accounting
        resumes exactly where the checkpoint left it: nothing settles
        twice, nothing is lost.
        """
        payload = validate_checkpoint(checkpoint)
        sched = self.scheduler
        if payload["heuristic"] != sched.heuristic.name:
            raise CheckpointError(
                f"checkpoint was taken with heuristic "
                f"{payload['heuristic']!r}, service runs {sched.heuristic.name!r}"
            )
        if payload["policy"] != sched.policy.label:
            raise CheckpointError(
                f"checkpoint policy {payload['policy']!r} != "
                f"{sched.policy.label!r}"
            )
        if payload["window_interval"] != self.interval:
            raise CheckpointError(
                f"checkpoint window interval {payload['window_interval']} != "
                f"{self.interval}"
            )
        if payload["trust_epoch"] != sched.grid.trust_table.epoch:
            raise CheckpointError(
                "the grid's trust table evolved since the checkpoint "
                f"(epoch {sched.grid.trust_table.epoch} != "
                f"{payload['trust_epoch']}); restore onto a grid at the "
                "checkpointed trust epoch"
            )
        if len(payload["machines"]) != sched.grid.n_machines:
            raise CheckpointError(
                f"checkpoint has {len(payload['machines'])} machines, "
                f"grid has {sched.grid.n_machines}"
            )
        journal_sidecar = payload.get("trust_journal")
        if journal_sidecar is not None:
            if self.trust_plane is None:
                raise CheckpointError(
                    "checkpoint carries a trust-journal sidecar but the "
                    "resumed service has no durable trust plane attached; "
                    "recover it via resolve_trust_journal and pass "
                    "trust_plane="
                )
            verify_trust_journal(journal_sidecar, self.trust_plane)
        elif self.trust_plane is not None:
            raise CheckpointError(
                "the resumed service has a durable trust plane but the "
                "checkpoint carries no trust-journal sidecar; resuming "
                "would journal onto unpinned state"
            )

        engine, sim = self._begin(
            requests, kill_after_window, checkpoint_every
        )
        clock = float(payload["clock"])
        by_index = {r.index: r for r in requests}

        def request_of(index: int) -> Request:
            try:
                return by_index[index]
            except KeyError:
                raise CheckpointError(
                    f"checkpoint references request {index}, which is "
                    "absent from the resumed workload"
                ) from None

        # Settled accounting and machine bookkeeping.
        for state, d in zip(engine.states, payload["machines"]):
            state.available_time = float(d["available_time"])
            state.busy_time = float(d["busy_time"])
            state.assigned_count = int(d["assigned_count"])
            state.failed_count = int(d["failed_count"])
        engine.records = {
            int(k): CompletionRecord(**v)
            for k, v in payload["records"].items()
        }
        engine.rejected = {int(k): v for k, v in payload["rejected"].items()}
        engine.dropped = [int(i) for i in payload["dropped"]]
        engine.failures = [_failure_from(d) for d in payload["failures"]]
        engine.attempts = {
            int(k): int(v) for k, v in payload["attempts"].items()
        }
        engine.batches_formed = int(payload["batches_formed"])
        engine.settled = (
            len(engine.records) + len(engine.rejected) + len(engine.dropped)
        )
        engine.pending = [
            request_of(int(i)) for i in payload["pending"]
        ]
        for idx, machines in payload["exclusions"].items():
            for m in machines:
                sched.costs.exclude(int(idx), int(m))
        self._restore_trust_plane(payload)

        # Arrivals not yet ingested resume their schedule; everything at or
        # before the checkpoint clock already fired (ARRIVAL outranks the
        # window's BATCH priority at equal times).
        ingested = (
            set(engine.records)
            | set(engine.rejected)
            | set(engine.dropped)
            | {r.index for r in engine.pending}
            | {int(k) for k in payload["inflight_failures"]}
            | {int(k) for k in payload["inflight_retries"]}
        )
        for request in requests:
            if request.index in ingested:
                continue
            sim.schedule(
                max(request.arrival_time, clock),
                self._on_arrival,
                priority=EventPriority.ARRIVAL,
                payload=request,
            )
        # In-flight recovery events: the attempt outcomes are already on
        # the machines' books; only the pending notifications re-arm.
        for k, d in sorted(
            payload["inflight_failures"].items(), key=lambda kv: int(kv[0])
        ):
            engine.rearm_failure(_failure_from(d), request_of(int(k)))
        for k, due_attempt in sorted(
            payload["inflight_retries"].items(), key=lambda kv: int(kv[0])
        ):
            due, attempt = due_attempt
            engine.schedule_retry(
                request_of(int(k)), max(float(due), clock), int(attempt)
            )

        # Service-plane state.
        if payload["admission"] is not None:
            if self.admission.bucket is None:
                raise CheckpointError(
                    "checkpoint carries token-bucket state but the resumed "
                    "service has no rate limit configured"
                )
            self.admission.bucket.restore(payload["admission"])
        if payload["backpressure"] is not None:
            if self.latch is None:
                raise CheckpointError(
                    "checkpoint carries backpressure state but the resumed "
                    "service has no backpressure configured"
                )
            self.latch.restore(payload["backpressure"])
        wd = payload["watchdog"]
        self._watchdog_trips = int(wd["trips"])
        self._stalled_windows = int(wd["stalled_windows"])
        self._last_settled = int(wd["last_settled"])
        counters = payload["counters"]
        self._submitted = int(counters["submitted"])
        self._admitted = int(counters["admitted"])
        self._shed = _Counter(
            {str(k): int(v) for k, v in counters["shed"].items()}
        )
        self._epoch = int(payload["epoch"])
        self._next_window = float(payload["next_window"])

        if engine.settled < self._total:
            sim.schedule(
                self._next_window, self._on_window,
                priority=EventPriority.BATCH,
            )
        # Machines currently mid-downtime lose only that downtime's trace
        # events; outcomes are resolved against the injector timelines at
        # booking time, so accounting is unaffected.
        engine.start_machine_watch(after=clock)
        if self.metrics.enabled:
            self.metrics.counter("svc.restores").add()
        return self._drive()

    @property
    def checkpoints(self) -> Sequence[dict]:
        """Boundary checkpoints taken so far (``checkpoint_every``).

        A read-only sequence over the marks taken up to now; indexing it
        builds that boundary's v1 payload, a fresh dict on every read.
        """
        return _CheckpointLog(self._materialize, tuple(self._marks))

    # -- checkpointing -------------------------------------------------------

    def checkpoint(self, *, _keep: bool = False) -> dict | None:
        """Capture the complete service state at a window boundary.

        Returns a JSON-compatible payload (see
        :mod:`repro.service.checkpoint`).  Only deterministic trust-fault
        configurations can be checkpointed: a trust source with a *random*
        outage process (``outage_mtbf``) materialises its timeline lazily
        and cannot be restored faithfully.

        The periodic boundaries of a ``checkpoint_every`` run pass
        ``_keep``: the checkpoint is then only marked onto
        :attr:`checkpoints` and nothing is built or returned, so taking it
        costs what is in flight.
        """
        mark = self._mark()
        if _keep:
            self._marks.append(mark)
            return None
        return self._materialize(mark)

    def _mark(self) -> _Mark:
        """Record a boundary: O(in-flight), whatever has settled.

        The settled ledgers (``records``, ``rejected``, ``dropped``,
        ``failures``, ``attempts``) only ever grow, and a settled request's
        ``attempts`` entry and exclusions never change again, so their
        lengths pin the settled part; only the unsettled requests'
        attempts and exclusions are copied.
        """
        engine, sim = self._running()
        ts = self.scheduler.trust_source
        if (
            ts is not None
            and ts.fault is not None
            and ts.fault.outage_mtbf is not None
        ):
            raise CheckpointError(
                "cannot checkpoint a trust source with a random outage "
                "process (outage_mtbf); use blackout/explicit outage "
                "windows for recoverable runs"
            )
        head: dict[str, Any] = {
            "schema": CHECKPOINT_SCHEMA,
            "epoch": self._epoch,
            "clock": sim.now,
            "next_window": self._next_window,
            "heuristic": self.scheduler.heuristic.name,
            "policy": self.scheduler.policy.label,
            "window_interval": self.interval,
            "trust_epoch": self.scheduler.grid.trust_table.epoch,
            "machines": [
                {
                    "available_time": s.available_time,
                    "busy_time": s.busy_time,
                    "assigned_count": s.assigned_count,
                    "failed_count": s.failed_count,
                }
                for s in engine.states
            ],
            "batches_formed": engine.batches_formed,
            "pending": [r.index for r in engine.pending],
            "inflight_failures": {
                str(k): _failure_dict(f)
                for k, f in engine.inflight_failures.items()
            },
            "inflight_retries": {
                str(k): [due, attempt]
                for k, (due, attempt) in engine.inflight_retries.items()
            },
            "admission": (
                self.admission.bucket.state_dict()
                if self.admission.bucket is not None
                else None
            ),
            "backpressure": (
                self.latch.state_dict() if self.latch is not None else None
            ),
            "watchdog": {
                "trips": self._watchdog_trips,
                "stalled_windows": self._stalled_windows,
                "last_settled": self._last_settled,
            },
            "counters": {
                "submitted": self._submitted,
                "admitted": self._admitted,
                "shed": dict(self._shed),
            },
        }
        if ts is not None:
            head["trust_plane"] = ts.state_dict()
        if self.trust_plane is not None:
            # Delta-checkpoint the durable trust plane: fsync only the
            # journal tail (O(changes)), pin the durable offset.
            attach_trust_journal(head, self.trust_plane)
        unsettled = [r.index for r in engine.pending]
        unsettled += engine.inflight_failures
        unsettled += engine.inflight_retries
        costs = self.scheduler.costs
        exclusions = {}
        for k in unsettled:
            machines = costs.exclusions(k)
            if machines:
                exclusions[k] = sorted(machines)
        return _Mark(
            head=head,
            lengths=(
                len(engine.records),
                len(engine.rejected),
                len(engine.dropped),
                len(engine.failures),
                len(engine.attempts),
            ),
            attempts={
                k: engine.attempts[k] for k in unsettled if k in engine.attempts
            },
            exclusions=exclusions,
        )

    def _materialize(self, mark: _Mark) -> dict:
        """Build the self-contained v1 payload of ``mark``.

        The settled part is the ledger prefix the mark's lengths pin; the
        in-flight part comes from the mark itself.  Every call returns a
        fresh dict that shares nothing with the mark or the engine.

        Raises:
            CheckpointError: an ``attempts`` entry in the prefix belongs to
                a request neither settled at the mark nor captured in
                flight — the ledgers were not append-only.
        """
        engine, _ = self._running()
        n_records, n_rejected, n_dropped, n_failures, n_attempts = mark.lengths
        records = dict(islice(engine.records.items(), n_records))
        rejected = dict(islice(engine.rejected.items(), n_rejected))
        dropped = engine.dropped[:n_dropped]
        settled = records.keys() | rejected.keys() | set(dropped)
        attempts: dict[str, int] = {}
        for k, v in islice(engine.attempts.items(), n_attempts):
            if k in mark.attempts:
                v = mark.attempts[k]
            elif k not in settled:
                raise CheckpointError(
                    f"request {k} has attempts in the ledger prefix but was "
                    "neither settled nor in flight at the checkpoint; the "
                    "settled ledgers are not append-only"
                )
            attempts[str(k)] = v
        source = (
            self._final_exclusions
            if self._final_exclusions is not None
            else self.scheduler.costs.all_exclusions()
        )
        exclusions = {
            str(k): sorted(machines)
            for k, machines in source.items()
            if k in settled
        }
        exclusions.update(
            (str(k), list(machines)) for k, machines in mark.exclusions.items()
        )
        payload = copy.deepcopy(mark.head)
        payload["records"] = {
            str(k): _record_dict(r) for k, r in records.items()
        }
        payload["rejected"] = {str(k): v for k, v in rejected.items()}
        payload["dropped"] = dropped
        payload["failures"] = [
            _failure_dict(f) for f in engine.failures[:n_failures]
        ]
        payload["attempts"] = attempts
        payload["exclusions"] = exclusions
        return payload

    def _restore_trust_plane(self, payload: dict) -> None:
        ts = self.scheduler.trust_source
        plane = payload.get("trust_plane")
        if plane is None:
            if ts is not None:
                raise CheckpointError(
                    "the resumed service has a trust source but the "
                    "checkpoint carries no trust-plane state"
                )
            return
        if ts is None:
            raise CheckpointError(
                "checkpoint carries trust-plane state but the resumed "
                "service has no trust source"
            )
        ts.restore(plane)

    # -- event handlers ------------------------------------------------------

    def _on_arrival(self, event: Event) -> None:
        engine, _ = self._running()
        request: Request = event.payload
        self.scheduler.tracer.emit(
            event.time, "arrival", request=request.index
        )
        self._submitted += 1
        if self.metrics.enabled:
            self.metrics.counter("svc.submitted").add()
        reason = self.admission.decide(
            request,
            event.time,
            queue=engine.pending,
            queue_bounded=self._batch_mode,
            backpressure=self.latch.engaged if self.latch is not None else False,
        )
        if reason is ShedReason.QUEUE_FULL:
            victim = self.admission.eviction_victim(request, engine.pending)
            if victim is not None:
                self._shed_request(
                    victim, event.time, ShedReason.PRIORITY_EVICTED,
                    pending=True,
                )
                reason = None
        if reason is not None:
            self._shed_request(request, event.time, reason)
            return
        self._admitted += 1
        if self.metrics.enabled:
            self.metrics.counter("svc.admitted").add()
        with self.metrics.timer("svc.submit_latency_s"):
            engine.submit(request, event.time)
        self._update_latch(self._backlog())

    def _on_window(self, event: Event) -> None:
        engine, sim = self._running()
        deadline = self.admission.policy.deadline
        if deadline is not None and engine.pending:
            expired = [
                r
                for r in engine.pending
                if event.time - r.arrival_time > deadline
            ]
            for request in expired:
                self._shed_request(
                    request, event.time, ShedReason.DEADLINE_EXPIRED,
                    pending=True,
                )
        mapped = 0
        wall = 0.0
        if self._batch_mode:
            begin = _time.perf_counter()
            mapped = engine.form_batch(event.time)
            wall = _time.perf_counter() - begin
        self._epoch += 1
        if self.metrics.enabled:
            self.metrics.counter("svc.windows").add()
            self.metrics.histogram("svc.window_mapped").observe(mapped)
            if self._batch_mode:
                self.metrics.histogram("svc.window_wall_s").observe(wall)
        backlog = self._backlog()
        if self.metrics.enabled:
            self.metrics.histogram("svc.backlog").observe(backlog)
        self._update_latch(backlog)
        self._watch(wall, backlog, engine.settled)
        # The next window's exact accumulated float — checkpointed so a
        # resumed chain reproduces the same mapped_time values bit-for-bit.
        self._next_window = event.time + self.interval
        if (
            self._checkpoint_every is not None
            and self._epoch % self._checkpoint_every == 0
        ):
            self.checkpoint(_keep=True)
            if self.metrics.enabled:
                self.metrics.counter("svc.checkpoints").add()
        if self._kill_after is not None and self._epoch >= self._kill_after:
            raise ServiceKilled(
                f"service killed at window {self._epoch} boundary "
                f"(t={event.time})",
                self.checkpoint(),
            )
        if engine.settled < self._total:
            sim.schedule(
                self._next_window, self._on_window,
                priority=EventPriority.BATCH,
            )

    def _watch(self, wall: float, backlog: int, settled: int) -> None:
        wd = self.config.watchdog
        tripped: str | None = None
        if self._batch_mode and wall > wd.window_wall_budget_s:
            tripped = (
                f"window {self._epoch} spent {wall:.3f}s wall-clock "
                f"(budget {wd.window_wall_budget_s}s)"
            )
        if settled == self._last_settled and backlog > 0:
            self._stalled_windows += 1
            if self._stalled_windows >= wd.stall_window_limit:
                tripped = (
                    f"{self._stalled_windows} consecutive windows with a "
                    f"backlog of {backlog} and no settling progress"
                )
        else:
            self._stalled_windows = 0
        self._last_settled = settled
        if tripped is not None:
            self._watchdog_trips += 1
            if self.metrics.enabled:
                self.metrics.counter("svc.watchdog.trips").add()
            if wd.fail_fast:
                raise ServiceStalled(tripped)

    # -- helpers -------------------------------------------------------------

    def _begin(
        self,
        requests: Sequence[Request],
        kill_after_window: int | None,
        checkpoint_every: int | None,
    ) -> tuple[SchedulingEngine, Simulator]:
        if self._served:
            raise ServiceError(
                "GridService instances are single-shot; construct a fresh "
                "service (and scheduler) per serve()/resume() call"
            )
        self._served = True
        if kill_after_window is not None and kill_after_window < 1:
            raise ConfigurationError("kill_after_window must be >= 1")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be >= 1")
        sim = Simulator(metrics=self.metrics)
        total = len(requests)
        engine = SchedulingEngine(
            self.scheduler, sim, more_work=lambda: engine.settled < total
        )
        self._sim = sim
        self._engine = engine
        self._requests = requests
        self._total = total
        self._kill_after = kill_after_window
        self._checkpoint_every = checkpoint_every
        self._last_settled = 0
        return engine, sim

    def _drive(self) -> ServiceResult:
        engine, sim = self._running()
        try:
            sim.run()
        finally:
            # Marks read after the run must not see later mutations of the
            # scheduler's cost provider (e.g. a reused scheduler).
            self._final_exclusions = self.scheduler.costs.all_exclusions()
        settled = (
            len(engine.records) + len(engine.rejected) + len(engine.dropped)
        )
        if settled != self._total:
            raise SchedulingError(
                f"service drained with {len(engine.records)} completed + "
                f"{len(engine.rejected)} rejected + {len(engine.dropped)} "
                f"dropped of {self._total} requests"
            )
        return ServiceResult(
            schedule=engine.result(self._requests),
            submitted=self._submitted,
            admitted=self._admitted,
            shed=dict(sorted(self._shed.items())),
            windows=self._epoch,
            watchdog_trips=self._watchdog_trips,
            checkpoints=len(self._marks),
            backpressure_engagements=(
                self.latch.engagements if self.latch is not None else 0
            ),
            backpressure_releases=(
                self.latch.releases if self.latch is not None else 0
            ),
            checkpoint_payloads=self.checkpoints,
        )

    def _shed_request(
        self,
        request: Request,
        time: float,
        reason: ShedReason,
        *,
        pending: bool = False,
    ) -> None:
        engine, _ = self._running()
        if pending:
            engine.shed_pending(request, time, reason.value)
        else:
            engine.shed(request, time, reason.value)
        self._shed[reason.value] += 1
        if self.metrics.enabled:
            self.metrics.counter("svc.shed").add()
            self.metrics.counter(f"svc.shed.{reason.value}").add()

    def _backlog(self) -> int:
        engine, _ = self._running()
        return (
            len(engine.pending)
            + len(engine.inflight_failures)
            + len(engine.inflight_retries)
        )

    def _update_latch(self, backlog: int) -> None:
        if self.latch is None:
            return
        if self.latch.update(backlog) and self.metrics.enabled:
            name = "engaged" if self.latch.engaged else "released"
            self.metrics.counter(f"svc.backpressure.{name}").add()

    def _running(self) -> tuple[SchedulingEngine, Simulator]:
        if self._engine is None or self._sim is None:
            raise ServiceError("the service has no active run")
        return self._engine, self._sim


# -- marks and their materialised view ------------------------------------


@dataclass(frozen=True)
class _Mark:
    """One boundary checkpoint, as taken.

    Attributes:
        head: every payload key except the settled ledgers, ``attempts``
            and ``exclusions``, trust state and sidecar included; never
            handed out, only deep-copied.
        lengths: ``len`` of ``records``, ``rejected``, ``dropped``,
            ``failures`` and ``attempts`` at the boundary.
        attempts: attempts of the requests unsettled at the boundary.
        exclusions: sorted exclusions of the requests unsettled at the
            boundary.
    """

    head: dict[str, Any]
    lengths: tuple[int, int, int, int, int]
    attempts: dict[int, int]
    exclusions: dict[int, list[int]]


class _CheckpointLog(Sequence):
    """Read-only ``Sequence[dict]`` over marks, materialised per read."""

    __slots__ = ("_materialize", "_marks")

    def __init__(
        self, materialize: Callable[[_Mark], dict], marks: tuple[_Mark, ...]
    ) -> None:
        self._materialize = materialize
        self._marks = marks

    def __len__(self) -> int:
        return len(self._marks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._materialize(m) for m in self._marks[index])
        return self._materialize(self._marks[index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        # Copies and pickles hold the payloads, not the service behind them.
        return (tuple, (tuple(self),))

    def __repr__(self) -> str:
        return f"<{len(self._marks)} service checkpoints>"


# -- (de)serialisation helpers ----------------------------------------------


def _record_dict(record: CompletionRecord) -> dict:
    return {
        "request_index": record.request_index,
        "machine_index": record.machine_index,
        "arrival_time": record.arrival_time,
        "mapped_time": record.mapped_time,
        "start_time": record.start_time,
        "completion_time": record.completion_time,
        "eec": record.eec,
        "realized_cost": record.realized_cost,
        "trust_cost": record.trust_cost,
        "attempt": record.attempt,
    }


def _failure_dict(failure: FailureEvent) -> dict:
    return {
        "request_index": failure.request_index,
        "machine_index": failure.machine_index,
        "attempt": failure.attempt,
        "start_time": failure.start_time,
        "failure_time": failure.failure_time,
        "wasted_work": failure.wasted_work,
        "kind": failure.kind.value,
    }


def _failure_from(d: dict) -> FailureEvent:
    return FailureEvent(
        request_index=int(d["request_index"]),
        machine_index=int(d["machine_index"]),
        attempt=int(d["attempt"]),
        start_time=float(d["start_time"]),
        failure_time=float(d["failure_time"]),
        wasted_work=float(d["wasted_work"]),
        kind=FailureKind(d["kind"]),
    )
