"""Periodic boundary checkpoints: marks materialise to the eager payload.

``GridService`` keeps each ``checkpoint_every`` boundary as a mark (the
in-flight state plus ledger lengths) and builds the v1 payload only when
it is read.  :func:`eager_checkpoint` below is the payload builder the
service used before marks — it serialises everything at the boundary,
reading the trust plane's private fields — and serves as the oracle: at
every boundary of every configuration the materialised payload must
equal it, validate, survive JSON, and resume to the uninterrupted
settlement.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.experiments.config import PAPER_BATCH_INTERVAL, paper_policies
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultModel, MachineFailureModel, TaskFailureModel
from repro.faults.retry import RetryPolicy
from repro.scheduling import TRMScheduler, make_heuristic
from repro.service import AdmissionPolicy, GridService, ServiceConfig
from repro.service.checkpoint import (
    CHECKPOINT_SCHEMA,
    attach_trust_journal,
    load_checkpoint,
    save_checkpoint,
    validate_checkpoint,
)
from repro.service.service import _failure_dict, _record_dict
from repro.trustfaults.model import TrustFaultModel, TrustSourceFault
from repro.trustfaults.query import ResilientTrustSource
from repro.workloads.scenario import ScenarioSpec, materialize


@pytest.fixture(scope="module")
def long_scenario():
    """80 tasks arriving over ~11 windows, so boundaries have history."""
    spec = ScenarioSpec(n_tasks=80, n_machines=4, arrival_rate=0.012)
    return materialize(spec, seed=9)


# -- the oracle -------------------------------------------------------------


def _jsonify_rng_state(state):
    if isinstance(state, dict):
        return {k: _jsonify_rng_state(v) for k, v in state.items()}
    if isinstance(state, np.ndarray):
        return {"__ndarray__": state.tolist(), "dtype": str(state.dtype)}
    if isinstance(state, np.generic):
        return state.item()
    return state


def eager_checkpoint(service: GridService) -> dict:
    """The whole payload, serialised at the boundary (no marks)."""
    engine, sim = service._running()
    ts = service.scheduler.trust_source
    payload = {
        "schema": CHECKPOINT_SCHEMA,
        "epoch": service._epoch,
        "clock": sim.now,
        "next_window": service._next_window,
        "heuristic": service.scheduler.heuristic.name,
        "policy": service.scheduler.policy.label,
        "window_interval": service.interval,
        "trust_epoch": service.scheduler.grid.trust_table.epoch,
        "machines": [
            {
                "available_time": s.available_time,
                "busy_time": s.busy_time,
                "assigned_count": s.assigned_count,
                "failed_count": s.failed_count,
            }
            for s in engine.states
        ],
        "records": {
            str(k): _record_dict(r) for k, r in engine.records.items()
        },
        "rejected": {str(k): v for k, v in engine.rejected.items()},
        "dropped": list(engine.dropped),
        "failures": [_failure_dict(f) for f in engine.failures],
        "attempts": {str(k): v for k, v in engine.attempts.items()},
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
        "exclusions": {
            str(k): sorted(machines)
            for k, machines in service.scheduler.costs.all_exclusions().items()
        },
        "admission": (
            service.admission.bucket.state_dict()
            if service.admission.bucket is not None
            else None
        ),
        "backpressure": (
            service.latch.state_dict() if service.latch is not None else None
        ),
        "watchdog": {
            "trips": service._watchdog_trips,
            "stalled_windows": service._stalled_windows,
            "last_settled": service._last_settled,
        },
        "counters": {
            "submitted": service._submitted,
            "admitted": service._admitted,
            "shed": dict(service._shed),
        },
    }
    if ts is not None:
        breaker = ts.breaker
        opened_at = breaker._opened_at
        payload["trust_plane"] = {
            "now": ts.now,
            "breaker": {
                "state": breaker._state.value,
                "failures": breaker._failures,
                "probes_ok": breaker._probes_ok,
                "opened_at": None if np.isneginf(opened_at) else opened_at,
                "transitions": breaker._transitions,
            },
            "rng": _jsonify_rng_state(ts._rng.bit_generator.state),
        }
    if service.trust_plane is not None:
        attach_trust_journal(payload, service.trust_plane)
    return payload


# -- configurations ---------------------------------------------------------

CRASHES = FaultModel(
    tasks=TaskFailureModel(default_crash_prob=0.2),
    machines=MachineFailureModel(mtbf=4000.0, mttr=400.0),
)


def _service(
    scenario,
    *,
    heuristic="min-min",
    faults=None,
    config=None,
    blackout=False,
):
    aware, _ = paper_policies()
    trust_source = (
        ResilientTrustSource.from_model(
            scenario.grid,
            TrustFaultModel(table=TrustSourceFault(blackout=True)),
            rng=2,
        )
        if blackout
        else None
    )
    scheduler = TRMScheduler(
        scenario.grid,
        scenario.eec,
        aware,
        make_heuristic(heuristic),
        batch_interval=(
            PAPER_BATCH_INTERVAL if heuristic == "min-min" else None
        ),
        faults=FaultInjector(faults, rng=3) if faults is not None else None,
        retry=RetryPolicy(backoff_base=30.0) if faults is not None else None,
        trust_source=trust_source,
    )
    return GridService(scheduler, config)


CONFIGS = {
    "min-min-crashes": dict(faults=CRASHES),
    "deadline-queue-shedding": dict(
        config=ServiceConfig(
            admission=AdmissionPolicy(queue_capacity=6, deadline=450.0)
        ),
        faults=CRASHES,
    ),
    "token-bucket-backpressure": dict(
        config=ServiceConfig(
            admission=AdmissionPolicy(rate=0.02, burst=3.0),
            backpressure_high=6,
        ),
        faults=CRASHES,
    ),
    "trust-blackout": dict(blackout=True, faults=CRASHES),
    "mct-crashes": dict(heuristic="mct", faults=CRASHES),
}


def _serve_with_oracle(scenario, kwargs, every, monkeypatch):
    """Serve with ``checkpoint_every``, recording the eager oracle at
    every boundary the service marks."""
    eager: list[dict] = []
    mark = GridService._mark

    def spy(self):
        eager.append(eager_checkpoint(self))
        return mark(self)

    with monkeypatch.context() as m:
        m.setattr(GridService, "_mark", spy)
        result = _service(scenario, **kwargs).serve(
            scenario.requests, checkpoint_every=every
        )
    return result, eager


def _assert_same_settlement(resumed, baseline):
    ours, theirs = resumed.schedule, baseline.schedule
    assert ours.records == theirs.records
    assert ours.rejected == theirs.rejected
    assert ours.rejection_reasons == theirs.rejection_reasons
    assert ours.dropped == theirs.dropped
    assert ours.failures == theirs.failures
    for a, b in zip(ours.machine_states, theirs.machine_states):
        assert a.available_time == b.available_time
        assert a.busy_time == b.busy_time
        assert a.assigned_count == b.assigned_count
        assert a.failed_count == b.failed_count


def _scribble(obj):
    """Mutate every container reachable from ``obj`` in place."""
    if isinstance(obj, dict):
        for value in obj.values():
            _scribble(value)
        obj["scribbled"] = True
    elif isinstance(obj, list):
        for value in obj:
            _scribble(value)
        obj.append("scribbled")


@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_periodic_checkpoints_match_the_eager_oracle(
    name, every, long_scenario, monkeypatch
):
    result, eager = _serve_with_oracle(
        long_scenario, CONFIGS[name], every, monkeypatch
    )
    payloads = result.checkpoint_payloads
    assert result.checkpoints == result.windows // every == len(eager)
    assert len(payloads) == result.checkpoints >= 2
    assert list(payloads) == eager
    assert payloads[-1] == eager[-1]
    assert payloads[-len(eager)] == eager[0]
    assert list(payloads[1:]) == eager[1:]
    for payload in payloads:
        validate_checkpoint(payload)
        assert json.loads(json.dumps(payload)) == payload

    # A read hands out a fresh dict: scribbling over one changes neither
    # another payload nor a second read of the same index.
    _scribble(payloads[0])
    assert payloads[0] == eager[0]
    assert payloads[1] == eager[1]


#: Resuming under a trust blackout diverges with eager payloads too: the
#: cost provider's key-shared TC-row cache, which realized-cost accounting
#: warms with ground-truth rows, is not part of a v1 checkpoint, so a
#: resumed run prices cached keys as degraded that the uninterrupted run
#: priced from the cache.
_BLACKOUT_RESUME = pytest.mark.xfail(
    strict=True,
    reason="v1 checkpoints omit the cost provider's TC-row cache",
)


@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=_BLACKOUT_RESUME)
        if name == "trust-blackout"
        else name
        for name in sorted(CONFIGS)
    ],
)
def test_every_periodic_checkpoint_resumes_to_the_uninterrupted_run(
    name, every, long_scenario
):
    kwargs = CONFIGS[name]
    result = _service(long_scenario, **kwargs).serve(
        long_scenario.requests, checkpoint_every=every
    )
    baseline = _service(long_scenario, **kwargs).serve(
        long_scenario.requests
    )
    _assert_same_settlement(result, baseline)
    for payload in result.checkpoint_payloads:
        resumed = _service(long_scenario, **kwargs).resume(
            json.loads(json.dumps(payload)), long_scenario.requests
        )
        _assert_same_settlement(resumed, baseline)


def test_the_configurations_cover_what_marks_must_carry(
    long_scenario, monkeypatch
):
    """Each branch of the mark is exercised by some boundary above.

    (``pending`` is always empty at a boundary: the window's batch has just
    taken it.)
    """
    seen = {
        "exclusions": False,
        "inflight_failures": False,
        "inflight_retries": False,
        "deadline-expired": False,
        "admission": False,
        "backpressure": False,
        "open-breaker": False,
    }
    for name, kwargs in CONFIGS.items():
        result, _ = _serve_with_oracle(long_scenario, kwargs, 1, monkeypatch)
        for p in result.checkpoint_payloads:
            for key in ("exclusions", "inflight_failures", "inflight_retries"):
                seen[key] |= bool(p[key])
            seen["deadline-expired"] |= "deadline-expired" in p["counters"]["shed"]
            seen["admission"] |= p["admission"] is not None
            seen["backpressure"] |= bool(
                p["backpressure"] and p["backpressure"]["engagements"]
            )
            seen["open-breaker"] |= (
                p.get("trust_plane", {}).get("breaker", {}).get("state")
                == "open"
            )
    assert all(seen.values()), seen


def test_saved_payload_loads_equal(tmp_path, long_scenario, monkeypatch):
    result, eager = _serve_with_oracle(
        long_scenario, CONFIGS["min-min-crashes"], 2, monkeypatch
    )
    path = save_checkpoint(result.checkpoint_payloads[-1], tmp_path / "c.json")
    text = path.read_text()
    assert text.count("\n") == 1 and ": " not in text
    assert load_checkpoint(path) == eager[-1]


def test_kill_path_materialises_the_same_payload(long_scenario):
    from repro.errors import ServiceKilled

    periodic = _service(long_scenario, faults=CRASHES).serve(
        long_scenario.requests, checkpoint_every=1
    )
    with pytest.raises(ServiceKilled) as exc:
        _service(long_scenario, faults=CRASHES).serve(
            long_scenario.requests, kill_after_window=3
        )
    assert exc.value.checkpoint == periodic.checkpoint_payloads[2]


def test_checkpoints_property_is_a_read_only_sequence(long_scenario):
    service = _service(long_scenario, faults=CRASHES)
    result = service.serve(long_scenario.requests, checkpoint_every=2)
    log = service.checkpoints
    assert len(log) == result.checkpoints
    assert log[0] == result.checkpoint_payloads[0]
    assert log[0] is not log[0]
    with pytest.raises(IndexError):
        log[len(log)]
    with pytest.raises(TypeError):
        log[0] = {}  # type: ignore[index]


def test_every_boundary_goes_through_the_public_checkpoint(
    long_scenario, monkeypatch
):
    """Periodic boundaries take their mark through ``checkpoint`` itself,
    so anything wrapping that method sees one call per boundary."""
    calls = []
    original = GridService.checkpoint

    def counted(self, **kwargs):
        calls.append(kwargs)
        return original(self, **kwargs)

    monkeypatch.setattr(GridService, "checkpoint", counted)
    result = _service(long_scenario, faults=CRASHES).serve(
        long_scenario.requests, checkpoint_every=2
    )
    assert len(calls) == result.checkpoints >= 2


def test_results_compare_copy_and_pickle_by_payload(long_scenario):
    import copy
    import dataclasses
    import pickle

    def run():
        return _service(long_scenario, faults=CRASHES).serve(
            long_scenario.requests, checkpoint_every=2
        )

    first, second = run(), run()
    assert first.checkpoint_payloads == second.checkpoint_payloads
    assert first == second
    assert first.checkpoint_payloads == list(second.checkpoint_payloads)
    assert first.checkpoint_payloads != list(second.checkpoint_payloads)[:-1]
    payloads = tuple(first.checkpoint_payloads)
    for clone in (
        copy.deepcopy(first.checkpoint_payloads),
        pickle.loads(pickle.dumps(first.checkpoint_payloads)),
        dataclasses.asdict(first)["checkpoint_payloads"],
    ):
        assert type(clone) is tuple
        assert clone == payloads
    unchecked = _service(long_scenario, faults=CRASHES).serve(
        long_scenario.requests
    )
    assert unchecked.checkpoint_payloads == ()
    with pytest.raises(TypeError):
        hash(first.checkpoint_payloads)


def test_a_broken_ledger_is_refused(long_scenario):
    """An attempts entry neither settled nor in flight at the mark means
    the ledgers were not append-only: reading the mark refuses."""
    service = _service(long_scenario, faults=CRASHES)
    result = service.serve(long_scenario.requests, checkpoint_every=1)
    mark = next(m for m in service._marks if m.attempts)
    victim = next(iter(mark.attempts))
    # Forge a mark that claims the in-flight request was never captured.
    forged = type(mark)(
        head=mark.head,
        lengths=mark.lengths,
        attempts={k: v for k, v in mark.attempts.items() if k != victim},
        exclusions=mark.exclusions,
    )
    with pytest.raises(CheckpointError, match="append-only"):
        service._materialize(forged)
    assert result.checkpoints == len(service._marks)


def test_reusing_the_scheduler_does_not_leak_into_old_marks(long_scenario):
    service = _service(long_scenario, faults=CRASHES)
    result = service.serve(long_scenario.requests, checkpoint_every=1)
    before = result.checkpoint_payloads[-1]
    costs = service.scheduler.costs
    for idx in list(result.checkpoint_payloads[-1]["attempts"]):
        costs.exclude(int(idx), 0)
    assert result.checkpoint_payloads[-1] == before
