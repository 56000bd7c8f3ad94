"""Determinism analyzer (det): static rules and the differ.

Each rule gets a *bad* fixture (exact rule ids and line numbers) and a
*clean* twin (silence), including a genuinely cross-module shared-state
case that only the call graph can see.  The dynamic half is exercised
both ways: the canonical fig07 workload must come back deterministic
under every perturbation mode, and the deliberately planted
``seeded_bug`` fixture — already flagged by the static rules — must be
caught by the registration-order perturbation too.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.det import registered_rules
from repro.analysis.det.perturb import (
    Fig07Scenario,
    RunResult,
    Scenario,
    TiebreakShuffledSimulator,
    diff_runs,
    normalized_trace,
    perturb_scenario,
)
from repro.analysis.front import build_hot_program, main, run_suite
from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "analysis" / "det"

ALL_RULE_IDS = {
    "shared-mutable-state",
    "rng-stream-discipline",
    "unordered-merge",
}


def analyze_determinism(paths, rule_ids=None):
    """det's findings over ``paths`` (default: every det rule)."""
    selection = {"det": rule_ids or sorted(ALL_RULE_IDS)}
    return run_suite(paths, selection)["det"]


def findings(target: str, rule_id: str):
    """(rule, line) pairs from one rule over one fixture file/package."""
    return [(v.rule, v.line)
            for v in analyze_determinism([FIXTURES / target], [rule_id])]


def build_program(paths):
    return build_hot_program(paths).program


def load_fixture_module(name: str):
    spec = importlib.util.spec_from_file_location(
        name, FIXTURES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_registry_has_the_three_det_rules():
    registry = registered_rules()
    assert set(registry) == ALL_RULE_IDS
    for rule_id, rule_class in registry.items():
        assert rule_class.id == rule_id
        assert rule_class.description


# ----------------------------------------------------------------------
# shared-mutable-state: cross-module globals and class-body containers.
# ----------------------------------------------------------------------
def test_shared_mutable_state_cross_module_positive():
    assert findings("shared_state_bad", "shared-mutable-state") == [
        ("shared-mutable-state", 14),  # state.REGISTRY.append(...)
        ("shared-mutable-state", 15),  # state.COUNTERS[...] = ...
        ("shared-mutable-state", 16),  # SEEN.add(...)
    ]


def test_shared_mutable_state_import_time_population_allowed():
    assert findings("shared_state_ok.py", "shared-mutable-state") == []


def test_shared_mutable_state_class_attr_positive():
    assert findings("class_attr_bad.py", "shared-mutable-state") == [
        ("shared-mutable-state", 10),  # samples = []
        ("shared-mutable-state", 11),  # limits = {}
    ]


def test_shared_mutable_state_per_instance_negative():
    assert findings("class_attr_ok.py", "shared-mutable-state") == []


def test_cross_module_mutation_needs_the_call_graph():
    program = build_program([FIXTURES / "shared_state_bad"])
    assert "shared_state_bad.worker:on_arrival" in program.kernel_reachable()
    assert "shared_state_bad.state.REGISTRY" in program.mutable_globals


# ----------------------------------------------------------------------
# rng-stream-discipline: worker-local, order-local, and counter-derived
# stream names.
# ----------------------------------------------------------------------
def test_rng_stream_discipline_positive():
    assert findings("rng_bad.py", "rng-stream-discipline") == [
        ("rng-stream-discipline", 9),   # f"src-{id(source)}"
        ("rng-stream-discipline", 13),  # f"worker-{os.getpid()}"
        ("rng-stream-discipline", 19),  # set-loop variable
        ("rng-stream-discipline", 25),  # mutated module counter
    ]


def test_rng_stream_discipline_negative():
    assert findings("rng_ok.py", "rng-stream-discipline") == []


# ----------------------------------------------------------------------
# unordered-merge: interprocedural, scoped to the cells()/run_cells
# aggregation modules.
# ----------------------------------------------------------------------
def test_unordered_merge_positive():
    assert findings("merge_bad.py", "unordered-merge") == [
        ("unordered-merge", 13),  # [label for label in index]
        ("unordered-merge", 23),  # for extra in extras:
    ]


def test_unordered_merge_negative():
    assert findings("merge_ok.py", "unordered-merge") == []


def test_unordered_merge_scope_follows_cell_fn_references():
    program = build_program([FIXTURES / "merge_bad.py"])
    roots = {"merge_bad:cells", "merge_bad:run"}
    closure = program.forward_closure(roots)
    # _cell is only reachable through the Cell(fn=_cell) reference edge.
    assert "merge_bad:_cell" in closure
    assert "merge_bad:_labels" in closure


# ----------------------------------------------------------------------
# The seeded bug is caught BOTH statically and by the differ below.
# ----------------------------------------------------------------------
def test_seeded_bug_is_flagged_statically_by_both_rules():
    violations = analyze_determinism([FIXTURES / "seeded_bug.py"])
    assert [(v.rule, v.line) for v in violations] == [
        ("shared-mutable-state", 21),   # REGISTERED.append(session_id)
        ("rng-stream-discipline", 22),  # f"src-{len(REGISTERED)}"
    ]


# ----------------------------------------------------------------------
# Suppressions flow through exactly like the other analyzers.
# ----------------------------------------------------------------------
def test_suppression_silences_exactly_the_named_rule(tmp_path):
    source = (
        "def attach(streams, source):\n"
        "    a = streams.stream(f'x-{id(source)}')"
        "  # repro: disable=rng-stream-discipline -- test\n"
        "    return streams.stream(f'y-{id(source)}')\n"
    )
    path = tmp_path / "suppressed.py"
    path.write_text(source)
    assert [(v.rule, v.line) for v in analyze_determinism([path])] == [
        ("rng-stream-discipline", 3),
    ]


# ----------------------------------------------------------------------
# TiebreakShuffledSimulator: ties dispatch in a different (seeded)
# order, everything else keeps the base kernel's contract.
# ----------------------------------------------------------------------
def _dispatch_order(sim):
    order = []
    for label in "abcdefgh":
        sim.schedule(0.0, order.append, label, priority=0)
    sim.run(until=1.0)
    return order


def test_tiebreak_simulator_permutes_equal_priority_ties():
    base = _dispatch_order(Simulator())
    assert base == list("abcdefgh")  # insertion order in the base kernel
    shuffled = [_dispatch_order(TiebreakShuffledSimulator(seed))
                for seed in (1, 2, 3)]
    assert all(sorted(order) == sorted(base) for order in shuffled)
    assert any(order != base for order in shuffled)


def test_tiebreak_simulator_is_reproducible_per_seed():
    assert (_dispatch_order(TiebreakShuffledSimulator(7))
            == _dispatch_order(TiebreakShuffledSimulator(7)))


def test_tiebreak_simulator_keeps_scheduling_errors():
    sim = TiebreakShuffledSimulator(1)
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.run(until=2.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_tiebreak_simulator_respects_time_and_priority():
    sim = TiebreakShuffledSimulator(3)
    order = []
    sim.schedule(2.0, order.append, "late", priority=0)
    sim.schedule(1.0, order.append, "low", priority=5)
    sim.schedule(1.0, order.append, "high", priority=0)
    sim.run(until=3.0)
    assert order == ["high", "low", "late"]


# ----------------------------------------------------------------------
# Trace normalization and the minimizing differ.
# ----------------------------------------------------------------------
def _record(time, category, **detail):
    return SimpleNamespace(time=time, category=category, node="n",
                           session="s", packet=1, detail=detail)


def test_normalized_trace_sorts_within_an_instant_only():
    first = [_record(1.0, "a"), _record(1.0, "b"), _record(2.0, "c")]
    second = [_record(1.0, "b"), _record(1.0, "a"), _record(2.0, "c")]
    swapped = [_record(2.0, "c"), _record(1.0, "a"), _record(1.0, "b")]
    assert normalized_trace(first) == normalized_trace(second)
    assert normalized_trace(first) != normalized_trace(swapped)


def test_diff_runs_minimizes_to_first_event_and_observable():
    base = RunResult(observables=(("x", "1"), ("y", "2")),
                     trace=("a", "b", "c"))
    pert = RunResult(observables=(("x", "1"), ("y", "9")),
                     trace=("a", "B", "c"))
    divergence = diff_runs(base, pert, scenario="s", mode="tiebreak",
                           detail="seed 1")
    assert divergence.first_event == (1, "b", "B")
    assert divergence.observable == ("y", "2", "9")
    assert "first diverging event (#1)" in divergence.render()


def test_diff_runs_reports_missing_tail_as_absent():
    base = RunResult(observables=(), trace=("a", "b", "c"))
    pert = RunResult(observables=(), trace=("a", "b"))
    divergence = diff_runs(base, pert, scenario="s", mode="m", detail="d")
    assert divergence.first_event == (2, "c", "<absent>")


def test_diff_runs_agreement_is_none():
    run = RunResult(observables=(("x", "1"),), trace=("a",))
    assert diff_runs(run, run, scenario="s", mode="m", detail="d") is None


# ----------------------------------------------------------------------
# The differ catches the seeded registration-order bug dynamically.
# ----------------------------------------------------------------------
class _SeededBugScenario(Scenario):
    name = "seeded-bug"

    def __init__(self, module):
        self._module = module

    def run(self, *, sim=None, order_seed=None, horizon=0.25):
        session_ids = ["s1", "s2", "s3", "s4"]
        if order_seed is not None:
            RandomStreams(order_seed).stream(
                "registration-order").shuffle(session_ids)
        counts = self._module.run(session_ids, horizon=horizon)
        return RunResult(
            observables=tuple((sid, repr(n)) for sid, n in counts),
            trace=())


def test_perturb_catches_the_seeded_registration_bug():
    scenario = _SeededBugScenario(load_fixture_module("seeded_bug"))
    report = perturb_scenario(scenario, modes=("registration",),
                              horizon=0.25, rounds=2)
    assert not report.deterministic
    divergence = report.divergences[0]
    assert divergence.mode == "registration"
    assert divergence.observable is not None
    assert "DIVERGED under registration" in report.render()


# ----------------------------------------------------------------------
# The canonical fig07 workload is deterministic under every mode —
# including workers=1 vs workers=4 bit-identity.
# ----------------------------------------------------------------------
def test_fig07_is_deterministic_under_all_perturbations():
    report = perturb_scenario(Fig07Scenario(), horizon=0.1, workers=4,
                              rounds=1)
    assert report.deterministic
    assert report.modes == ("tiebreak", "registration", "workers",
                            "partitions")
    # baseline + tiebreak + registration + 2 cells x {serial, pooled}
    # + the partitions mode's serial reference + 1 sharded shuffle
    assert report.runs == 9
    assert report.events > 0


# ----------------------------------------------------------------------
# CLI entry point.
# ----------------------------------------------------------------------
def test_cli_exit_codes_and_json(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    bad = str(FIXTURES / "shared_state_bad")
    ok = str(FIXTURES / "shared_state_ok.py")

    assert main([bad, "--select", "det", "--cache-dir", cache_dir]) == 1
    assert "shared-mutable-state" in capsys.readouterr().out

    assert main([ok, "--select", "det", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()  # drop the "clean" line before the JSON run

    assert main([bad, "--select", "det", "--format", "json",
                 "--no-cache"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [v["rule"] for v in payload["findings"]["det"]] == \
        ["shared-mutable-state"] * 3


def test_cli_select_runs_only_the_named_rule(capsys):
    target = str(FIXTURES / "seeded_bug.py")
    assert main([target, "--select", "det:rng-stream-discipline",
                 "--no-cache"]) == 1
    out = capsys.readouterr().out
    assert "rng-stream-discipline" in out
    assert "shared-mutable-state" not in out


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULE_IDS:
        assert f"det:{rule_id}:" in out


def test_cli_select_unknown_rule_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([str(FIXTURES / "rng_ok.py"), "--select",
              "det:no-such-rule"])
    assert excinfo.value.code == 2


def test_cli_perturb_writes_a_deterministic_bench_record(tmp_path, capsys):
    assert main(["--perturb", "fig07",
                 "--modes", "registration", "--horizon", "0.05",
                 "--rounds", "1", "--bench-dir", str(tmp_path)]) == 0
    assert "deterministic under registration" in capsys.readouterr().out
    payload = json.loads(
        (tmp_path / "BENCH_perturb-fig07.json").read_text())
    assert payload["deterministic"] is True
