"""Whole-program analyzer: rules against cross-module fixtures.

Every rule gets one *bad* fixture (asserting exact rule id and line
numbers) and one *clean* twin (asserting silence).  The interesting
twins are the ones only a call graph can tell apart: ``nondet_ok``
differs from ``nondet_bad`` solely in ``sorted(...)``, and
``reservation_ok`` loops an ``admit()`` whose transactional release
lives in a *different module*.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.front import build_hot_program, main, run_suite
from repro.analysis.verify import registered_rules

LINT_FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "analysis"
FIXTURES = LINT_FIXTURES / "verify"

ALL_RULE_IDS = {
    "nondeterministic-iteration",
    "dimension-mismatch",
    "untiebroken-event-transitive",
    "unreleased-reservation",
}


def analyze(paths, rule_ids=None):
    """verify's findings over ``paths`` (default: every verify rule)."""
    selection = {"verify": rule_ids or sorted(ALL_RULE_IDS)}
    return run_suite(paths, selection)["verify"]


def findings(target: str, rule_id: str, root: Path = FIXTURES):
    """(rule, line) pairs from one rule over one fixture file/package."""
    return [(v.rule, v.line) for v in analyze([root / target], [rule_id])]


def build_program(paths):
    return build_hot_program(paths).program


def test_registry_has_the_four_program_rules():
    registry = registered_rules()
    assert set(registry) == ALL_RULE_IDS
    for rule_id, rule_class in registry.items():
        assert rule_class.id == rule_id
        assert rule_class.description


# ----------------------------------------------------------------------
# nondeterministic-iteration: needs the cross-module call graph — the
# loop body only reaches sim.schedule() through helpers.kick().
# ----------------------------------------------------------------------
def test_nondeterministic_iteration_positive():
    assert findings("nondet_bad", "nondeterministic-iteration") == [
        ("nondeterministic-iteration", 13),  # for packet in waiting:
    ]


def test_nondeterministic_iteration_negative():
    assert findings("nondet_ok", "nondeterministic-iteration") == []


# ----------------------------------------------------------------------
# dimension-mismatch: inference from units constructors, parameter
# names, and annotated constants.
# ----------------------------------------------------------------------
def test_dimension_mismatch_positive():
    assert findings("dims_bad.py", "dimension-mismatch") == [
        ("dimension-mismatch", 10),  # deadline + rate
        ("dimension-mismatch", 14),  # length < holding
        ("dimension-mismatch", 18),  # schedule_at(rate, ...)
        ("dimension-mismatch", 22),  # ms(...) + Mbps(...)
    ]


def test_dimension_mismatch_negative():
    assert findings("dims_ok.py", "dimension-mismatch") == []


# ----------------------------------------------------------------------
# untiebroken-event-transitive: tree-wide.
# ----------------------------------------------------------------------
def test_untiebroken_event_transitive_positive():
    assert findings("untiebroken_bad.py", "untiebroken-event-transitive") == [
        ("untiebroken-event-transitive", 5),  # sim.schedule(0.0, callback)
        ("untiebroken-event-transitive", 9),  # sim.schedule_at(when, callback)
    ]


def test_untiebroken_event_transitive_negative():
    assert findings("untiebroken_ok.py", "untiebroken-event-transitive") == []


# The per-directory lint rule ``untiebroken-event`` folded into this
# one; its fixtures stay as extra inputs so the fold keeps covering
# every line the lint rule used to flag.
def test_untiebroken_event_transitive_covers_net_layer():
    assert findings("net/untiebroken_bad.py",
                    "untiebroken-event-transitive", LINT_FIXTURES) == [
        ("untiebroken-event-transitive", 5),  # schedule(...)
        ("untiebroken-event-transitive", 6),  # schedule_at(...)
    ]


def test_untiebroken_event_transitive_negative_with_priority():
    assert findings("net/untiebroken_ok.py",
                    "untiebroken-event-transitive", LINT_FIXTURES) == []


def test_untiebroken_event_transitive_covers_sched_layer():
    assert findings("sched/untiebroken_bad.py",
                    "untiebroken-event-transitive", LINT_FIXTURES) == [
        ("untiebroken-event-transitive", 5),  # schedule_at(...)
    ]


def test_untiebroken_event_transitive_covers_faults_layer():
    assert findings("faults/untiebroken_bad.py",
                    "untiebroken-event-transitive", LINT_FIXTURES) == [
        ("untiebroken-event-transitive", 5),  # schedule_at(down_at, ...)
        ("untiebroken-event-transitive", 6),  # schedule_at(up_at, ...)
    ]


# ----------------------------------------------------------------------
# unreleased-reservation: the bad fixture loops reserve() with no
# release anywhere; the clean one loops a transactional admit() that
# only the call graph can see through.
# ----------------------------------------------------------------------
def test_unreleased_reservation_positive():
    assert findings("reservation_bad.py", "unreleased-reservation") == [
        ("unreleased-reservation", 6),  # procedure.reserve(session) in loop
    ]


def test_unreleased_reservation_negative():
    assert findings("reservation_ok", "unreleased-reservation") == []


# ----------------------------------------------------------------------
# Suppressions flow through the Program just like in lint.
# ----------------------------------------------------------------------
def test_suppression_silences_exactly_the_named_rule(tmp_path):
    source = (
        "def arm(sim, cb):\n"
        "    sim.schedule(0.0, cb)"
        "  # repro: disable=untiebroken-event-transitive -- test\n"
        "    sim.schedule(1.0, cb)\n"
    )
    path = tmp_path / "suppressed.py"
    path.write_text(source)
    assert [(v.rule, v.line) for v in analyze([path])] == [
        ("untiebroken-event-transitive", 3),
    ]


# ----------------------------------------------------------------------
# Program model basics.
# ----------------------------------------------------------------------
def test_program_resolves_cross_module_calls():
    program = build_program([FIXTURES / "nondet_bad"])
    summary, drain = program.functions["nondet_bad.sched:drain"]
    assert any(program.call_reaches_sink(summary["module"], call)
               for call in drain["calls"])


def test_program_sees_transactional_release_across_modules():
    program = build_program([FIXTURES / "reservation_ok"])
    summary, admit = (
        program.functions["reservation_ok.controller:Controller.admit"])
    assert admit["has_try"]
    assert any(program.call_reaches_release(summary["module"], call)
               for call in admit["handler_calls"])


# ----------------------------------------------------------------------
# CLI entry point.
# ----------------------------------------------------------------------
def test_cli_exit_codes_and_json(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    bad = str(FIXTURES / "untiebroken_bad.py")
    ok = str(FIXTURES / "untiebroken_ok.py")

    assert main([bad, "--select", "verify", "--cache-dir", cache_dir]) == 1
    out = capsys.readouterr().out
    assert "untiebroken-event-transitive" in out

    assert main([ok, "--select", "verify", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()  # drop the "clean" line before the JSON run

    assert main([bad, "--select", "verify", "--format", "json",
                 "--no-cache"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [v["rule"] for v in payload["findings"]["verify"]] == \
        ["untiebroken-event-transitive"] * 2


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULE_IDS:
        assert f"verify:{rule_id}:" in out


def test_cli_select_unknown_rule_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([str(FIXTURES / "dims_ok.py"), "--select",
              "verify:no-such-rule"])
    assert excinfo.value.code == 2
