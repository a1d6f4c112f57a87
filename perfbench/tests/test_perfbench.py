"""Tests of the benchmark itself: names, inputs, gate, ledger wrappers.

Run from the repository root::

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import re
from pathlib import Path

import pytest

import run as bench
from ledger import (
    LAYER_FUNCTIONS,
    UMBRELLAS,
    SpanLedger,
    Target,
    _resolve_owners,
    install_ledger,
)
from workloads import WORKLOADS, GateError, input_seed, make_run

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Small versions of the workloads, so one instance runs in well under a
#: second.  Only the sizes change.
SMALL = {
    "serve-batch": {"n_tasks": 400},
    "serve-durable": {"n_tasks": 600, "checkpoint_every": 5},
    "session-trust": {"rounds": 3, "requests_per_round": 60},
}

#: Workload(s) on which each wrapped function must record a call.  The
#: functions mapped to () exist but no workload reaches them today: the
#: batched ECC and trust-cost assembly serve only the vectorised and heap
#: kernels (``min-min`` resolves to the reference kernel, ``mct`` prices
#: row by row), and the agents evaluate Γ one pair at a time.  Their ledger
#: rows read 0 calls until that changes.
EXERCISED = {
    "workloads.materialize": ("serve-batch", "serve-durable", "session-trust"),
    "workloads.range_based_matrix": ("serve-batch", "session-trust"),
    "workloads.generate_request_stream": ("serve-batch", "session-trust"),
    "service.admission.decide": ("serve-batch", "serve-durable"),
    "service.service.serve": ("serve-batch", "serve-durable"),
    "service.service.checkpoint": ("serve-durable",),
    "service.checkpoint.save": ("serve-durable",),
    "scheduling.engine.form_batch": ("serve-batch", "serve-durable"),
    "scheduling.engine.submit": ("serve-batch", "serve-durable", "session-trust"),
    "scheduling.engine.result": ("serve-batch", "serve-durable", "session-trust"),
    "scheduling.kernel.plan": ("serve-batch", "serve-durable"),
    "scheduling.kernel.choose": ("session-trust",),
    "scheduling.costs.mapping_ecc_row": ("serve-batch", "serve-durable", "session-trust"),
    "scheduling.costs.mapping_ecc_matrix": (),
    "scheduling.costs.mapping_ecc_chunks": (),
    "scheduling.costs.realized_ecc_row": ("serve-batch", "serve-durable", "session-trust"),
    "scheduling.costs.eec_row": ("serve-batch", "serve-durable", "session-trust"),
    "grid.topology.trust_cost_matrix": (),
    "grid.topology.trust_cost_per_machine": ("serve-batch", "session-trust"),
    "sim.kernel.run": ("serve-batch", "serve-durable", "session-trust"),
    "sim.kernel.schedule": ("serve-batch", "serve-durable", "session-trust"),
    "sim.events.fire": ("serve-batch", "serve-durable", "session-trust"),
    "faults.attempt_outcome": ("serve-durable",),
    "grid.agents.observe_transaction": ("session-trust",),
    "core.engine.gamma": ("session-trust",),
    "core.engine.gamma_matrix": (),
    "core.evolution.observe": ("session-trust",),
    "core.tables.record": ("session-trust",),
    "core.journal.append": ("session-trust",),
    "core.journal.checkpoint": ("session-trust",),
    "core.journal.recover": ("session-trust",),
    "core.store.snapshot": ("session-trust",),
}


def small(name: str) -> object:
    workload = WORKLOADS[name]
    return dataclasses.replace(workload, params={**workload.params, **SMALL[name]})


def drained(name: str, seed: int, workdir: Path):
    run = make_run(small(name), seed, workdir)
    run.prepare()
    run.drain()
    return run


def static_attrs() -> list[tuple[object, str, object]]:
    found = []
    for target in LAYER_FUNCTIONS:
        for owner in _resolve_owners(target.owner, target.attr):
            found.append((owner, target.attr, inspect.getattr_static(owner, target.attr)))
    return found


# -- metric names ----------------------------------------------------------


def test_metric_names_are_valid_and_within_caps():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    names = e2e + layer + [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    assert "setup_s" in e2e


def test_declared_metrics_are_the_ones_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == bench.END_TO_END
    assert layer == bench.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


# -- inputs ----------------------------------------------------------------


def test_seed_argument_changes_the_inputs(tmp_path):
    assert input_seed(1, 0) != input_seed(2, 0)
    a = make_run(small("serve-batch"), input_seed(1, 0), tmp_path / "a")
    b = make_run(small("serve-batch"), input_seed(2, 0), tmp_path / "b")
    c = make_run(small("serve-batch"), input_seed(1, 0), tmp_path / "c")
    for run in (a, b, c):
        run.prepare()
    arrivals = [[r.arrival_time for r in run.scenario.requests] for run in (a, b, c)]
    assert arrivals[0] != arrivals[1]
    assert arrivals[0] == arrivals[2]
    assert (a.scenario.eec != b.scenario.eec).any()


# -- correctness gate --------------------------------------------------------


def test_gate_rejects_a_lost_request(tmp_path):
    run = drained("serve-batch", 3, tmp_path)
    assert run.check()["counts"]["completed"] == 400
    schedule = run.result.schedule
    tampered = dataclasses.replace(schedule, records=schedule.records[1:])
    run.result = dataclasses.replace(run.result, schedule=tampered)
    with pytest.raises(GateError, match="never settled"):
        run.check()


def test_gate_rejects_a_request_settled_twice(tmp_path):
    run = drained("serve-durable", 3, tmp_path)
    schedule = run.result.schedule
    first = schedule.records[0].request_index
    tampered = dataclasses.replace(schedule, dropped=(*schedule.dropped, first))
    run.result = dataclasses.replace(run.result, schedule=tampered)
    with pytest.raises(GateError, match="more than once"):
        run.check()


def test_gate_rejects_a_retry_that_is_not_on_record(tmp_path):
    run = drained("serve-durable", 3, tmp_path)
    schedule = run.result.schedule
    assert schedule.failures
    tampered = dataclasses.replace(schedule, failures=schedule.failures[1:])
    run.result = dataclasses.replace(run.result, schedule=tampered)
    with pytest.raises(GateError, match="retry attempts|dropped before"):
        run.check()


def test_gate_rejects_a_recovered_plane_that_differs(tmp_path):
    run = drained("session-trust", 3, tmp_path)
    plane = run.session.trust_plane
    original = plane.close
    # Closing flushes the journal; a mutation made after that never
    # reaches the disk, so recovery must disagree with the live plane.
    def close_then_mutate():
        original()
        level = int(plane.grid_table.levels[0, 0, 0])
        plane.grid_table.set(0, 0, 0, 1 if level != 1 else 2)

    plane.close = close_then_mutate
    with pytest.raises(GateError, match="published levels"):
        run.check()


def test_gate_rejects_a_tampered_digest():
    assert bench.digest_failures(0, ["ab", "ab"], "ab") == []
    assert bench.digest_failures(0, ["ab", "ab"], None) == []
    assert bench.digest_failures(0, ["ab"], "cd")
    assert bench.digest_failures(0, ["ab", "cd"], None)


def test_pinned_digests_cover_the_default_seed():
    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text())
    assert set(pins) == set(WORKLOADS)
    needed = {str(input_seed(0, k)) for k in range(bench.child_count(30, trace=False))}
    for name in WORKLOADS:
        assert needed <= set(pins[name])


# -- ledger ----------------------------------------------------------------


@pytest.fixture(scope="module")
def ledgers(tmp_path_factory):
    out = {}
    for name in WORKLOADS:
        ledger = SpanLedger()
        with install_ledger(ledger) as absent:
            run = drained(name, 5, tmp_path_factory.mktemp(name))
            check = run.check()
        out[name] = (ledger, absent, check)
    return out


@pytest.mark.parametrize("metric", sorted(EXERCISED))
def test_every_wrapper_records_calls_where_exercised(ledgers, metric):
    for name, (ledger, absent, _check) in ledgers.items():
        assert metric not in absent
        if name in EXERCISED[metric]:
            assert ledger.calls.get(metric, 0) >= 1, f"{metric} on {name}"


def test_exercised_table_lists_every_wrapper():
    assert sorted(EXERCISED) == sorted(t.metric for t in LAYER_FUNCTIONS)


def test_absent_function_is_reported_absent_not_zero(ledgers):
    ghost = Target("scheduling.costs.gone", "class:repro.scheduling.costs:CostProvider", "gone")
    with install_ledger(SpanLedger(), (*LAYER_FUNCTIONS[:2], ghost)) as absent:
        assert absent == ["scheduling.costs.gone"]
    ledger, _absent, check = ledgers["serve-batch"]
    traced = {
        "ledger": {
            "calls": dict(ledger.calls), "self_s": dict(ledger.self_s),
            "rows": {}, "absent": ["scheduling.costs.eec_row"],
            "covered_s": 1.0, "drain_s": 1.0,
        },
        "check": check,
        "marks": {"main": 0.0, "imported": 0.5, "ready": 1.0, "drained": 2.0},
    }
    twin = {"decision_mapped": [1], "marks": {"ready": 0.0, "drained": 1.0}}
    values = bench.child_layers(twin, traced)
    assert "scheduling.costs.eec_row.calls" not in values
    assert values["scheduling.costs.realized_ecc_row.calls"] == 400


def test_traced_and_untraced_runs_settle_identically(ledgers, tmp_path):
    plain = drained("serve-durable", 5, tmp_path).check()
    assert plain["digest"] == ledgers["serve-durable"][2]["digest"]


def test_self_times_add_up_to_the_top_level_spans(ledgers):
    ledger = ledgers["session-trust"][0]
    top = sum(d for (_n, _s, d, parent, _o) in ledger.spans if parent == -1)
    assert sum(ledger.self_s.values()) == pytest.approx(top, rel=1e-9)
    begin = min(s for (_n, s, _d, _p, _o) in ledger.spans)
    end = max(s + d for (_n, s, d, _p, _o) in ledger.spans)
    assert ledger.covered(begin, end, frozenset()) == pytest.approx(top, rel=1e-9)
    umbrella = sum(ledger.self_s[name] for name in UMBRELLAS)
    assert ledger.covered(begin, end, UMBRELLAS) == pytest.approx(top - umbrella, rel=1e-9)


def drain_coverage(targets: tuple[Target, ...], workdir: Path) -> float:
    ledger = SpanLedger()
    with install_ledger(ledger, targets):
        run = make_run(small("serve-batch"), 5, workdir)
        run.prepare()
        begin = ledger.clock()
        run.drain()
        end = ledger.clock()
    return ledger.covered(begin, end, UMBRELLAS) / (end - begin)


def test_coverage_drops_when_a_leaf_function_is_not_wrapped(tmp_path):
    # Unwrapped, the batch window's own time falls into the self time of
    # the simulator's event dispatch, an umbrella, and leaves the coverage.
    full = drain_coverage(LAYER_FUNCTIONS, tmp_path / "full")
    without = tuple(
        t for t in LAYER_FUNCTIONS if t.metric != "scheduling.engine.form_batch"
    )
    assert drain_coverage(without, tmp_path / "without") < full - 0.05


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = static_attrs()
    with install_ledger(SpanLedger()):
        assert static_attrs() != before
        drained("serve-batch", 1, tmp_path)
    assert static_attrs() == before
    with pytest.raises(RuntimeError):
        with install_ledger(SpanLedger()):
            raise RuntimeError("fail inside a traced run")
    assert static_attrs() == before


def test_chrome_trace_dump(ledgers, tmp_path):
    ledger = ledgers["serve-durable"][0]
    path = tmp_path / "trace.json"
    ledger.dump_chrome(path, origin=0.0)
    events = json.loads(path.read_text())["traceEvents"]
    assert len(events) == len(ledger.spans)
    assert {e["ph"] for e in events} == {"X"}
    assert all(e["args"]["parent"] < e["args"]["span"] for e in events)


# -- the command -------------------------------------------------------------


def test_run_refuses_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    assert bench.main(["--workload", "serve-batch", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_children_past_the_deadline_count_as_failed(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "WORK", tmp_path / ".perfbench")
    monkeypatch.setattr(bench, "DEADLINE_S", 0.0)
    assert bench.main(["--workload", "serve-batch", "--seconds", "30"]) == 2
    assert capsys.readouterr().out == ""

    started = []

    def killed_after_warmup(args, env, timeout):
        if "--warmup" in args:
            return 0.0, {"warmup": True}, ""
        started.append(args)
        return 0.0, None, "child killed"

    monkeypatch.setattr(bench, "DEADLINE_S", 170.0)
    monkeypatch.setattr(bench, "spawn_child", killed_after_warmup)
    assert bench.main(["--workload", "serve-batch", "--seconds", "30"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    n = bench.child_count(30, trace=False)
    assert len(started) == n
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == n * WORKLOADS["serve-batch"].requests
