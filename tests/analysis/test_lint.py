"""The analyzer itself: rules against known-violation fixtures.

Every rule gets at least one positive fixture (asserting exact rule id
and line numbers) and one negative fixture (asserting silence); the
suppression fixture checks that ``# repro: disable=`` silences exactly
the named rule on exactly its own line.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import (
    Violation,
    analyze_file,
    analyze_paths,
    analyze_source,
    registered_rules,
    render_json,
    render_text,
)
from repro.analysis.front import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "analysis"

ALL_RULE_IDS = {
    "no-wallclock",
    "no-ambient-random",
    "float-time-equality",
    "raw-unit-literal",
    "mutable-default-arg",
    "unguarded-trace-emit",
}


def findings(fixture: str, rule_id: str):
    """(rule, line) pairs from running one rule over one fixture."""
    rule = registered_rules()[rule_id]()
    return [(v.rule, v.line) for v in analyze_file(FIXTURES / fixture, [rule])]


def test_registry_has_the_six_shipped_rules():
    registry = registered_rules()
    assert ALL_RULE_IDS <= set(registry)
    for rule_id, rule_class in registry.items():
        assert rule_class.id == rule_id
        assert rule_class.description


# ----------------------------------------------------------------------
# Per-rule positive and negative fixtures
# ----------------------------------------------------------------------
def test_no_wallclock_positive():
    assert findings("no_wallclock_bad.py", "no-wallclock") == [
        ("no-wallclock", 4),   # from time import perf_counter
        ("no-wallclock", 8),   # time.time()
        ("no-wallclock", 9),   # time.sleep()
        ("no-wallclock", 10),  # datetime.datetime.now()
    ]


def test_no_wallclock_negative():
    assert findings("no_wallclock_ok.py", "no-wallclock") == []


def test_no_ambient_random_positive():
    assert findings("ambient_random_bad.py", "no-ambient-random") == [
        ("no-ambient-random", 3),  # from random import randint
        ("no-ambient-random", 7),  # random.seed
        ("no-ambient-random", 8),  # random.random
        ("no-ambient-random", 9),  # random.Random
    ]


def test_no_ambient_random_negative_typed_stream_use():
    assert findings("ambient_random_ok.py", "no-ambient-random") == []


def test_no_ambient_random_exempts_sim_rng():
    # The generator factory itself lives in sim/rng.py; the exemption
    # is by path, which the fixture mirrors.
    assert findings("sim/rng.py", "no-ambient-random") == []


def test_float_time_equality_positive():
    assert findings("float_time_eq_bad.py", "float-time-equality") == [
        ("float-time-equality", 5),  # packet.deadline == now
        ("float-time-equality", 7),  # finish_time != eligible_time
        ("float-time-equality", 9),  # arrival_time == 0.0
    ]


def test_float_time_equality_negative():
    assert findings("float_time_eq_ok.py", "float-time-equality") == []


def test_raw_unit_literal_positive():
    assert findings("raw_unit_literal_bad.py", "raw-unit-literal") == [
        ("raw-unit-literal", 5),  # rate=32000.0
        ("raw-unit-literal", 6),  # l_max=424
        ("raw-unit-literal", 7),  # spacing=13.25
        ("raw-unit-literal", 8),  # schedule(1.0, ...)
    ]


def test_raw_unit_literal_negative():
    assert findings("raw_unit_literal_ok.py", "raw-unit-literal") == []


def test_mutable_default_positive():
    assert findings("mutable_default_bad.py", "mutable-default-arg") == [
        ("mutable-default-arg", 4),   # items=[]
        ("mutable-default-arg", 8),   # mapping={}
        ("mutable-default-arg", 12),  # values=list()
    ]


def test_mutable_default_negative():
    assert findings("mutable_default_ok.py", "mutable-default-arg") == []


def test_unguarded_trace_emit_positive():
    assert findings("trace_emit_bad.py", "unguarded-trace-emit") == [
        ("unguarded-trace-emit", 5),  # self.tracer.emit(...)
        ("unguarded-trace-emit", 7),  # tracer.emit(...) via local
        ("unguarded-trace-emit", 9),  # guarded by the wrong flag
    ]


def test_unguarded_trace_emit_negative_guarded_forms():
    assert findings("trace_emit_ok.py", "unguarded-trace-emit") == []


def test_unguarded_trace_emit_exempts_tracer_module():
    # The tracer implements emit; the exemption is by path, which the
    # fixture mirrors (same mechanism as the sim/rng.py exemption).
    assert findings("sim/trace.py", "unguarded-trace-emit") == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_suppression_silences_exactly_its_line_and_rule():
    rules = [cls() for cls in registered_rules().values()]
    violations = analyze_file(FIXTURES / "suppressed.py", rules)
    got = [(v.rule, v.line) for v in violations]
    # Line 7 suppressed; line 8 not; line 9 both rules suppressed via a
    # comma list; line 10 names the wrong rule so the finding stands.
    assert got == [("no-wallclock", 8), ("no-wallclock", 10)]


def test_suppression_requires_matching_rule_id():
    source = "import time\nt = time.time()  # repro: disable=no-wallclock\n"
    rules = [registered_rules()["no-wallclock"]()]
    assert analyze_source(source, Path("inline.py"), rules) == []
    wrong = source.replace("no-wallclock", "mutable-default-arg")
    remaining = analyze_source(wrong, Path("inline.py"), rules)
    assert [(v.rule, v.line) for v in remaining] == [("no-wallclock", 2)]


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def test_text_reporter_formats_gcc_style():
    violation = Violation(path="a.py", line=3, col=4,
                          rule="no-wallclock", message="boom")
    text = render_text([violation])
    assert "a.py:3:4: no-wallclock: boom" in text
    assert "1 violation (no-wallclock x1)" in text
    assert "clean" in render_text([], files_checked=5)


def test_json_reporter_round_trips():
    rules = [registered_rules()["no-wallclock"]()]
    violations = analyze_file(FIXTURES / "no_wallclock_bad.py", rules)
    payload = json.loads(render_json(violations, files_checked=1))
    assert payload["summary"]["total"] == len(violations) == 4
    assert payload["summary"]["by_rule"] == {"no-wallclock": 4}
    assert payload["violations"][0]["line"] == 4
    assert payload["violations"][0]["rule"] == "no-wallclock"


# ----------------------------------------------------------------------
# CLI behaviour
# ----------------------------------------------------------------------
def test_cli_exits_nonzero_on_fixtures(capsys):
    status = main(["--select", "lint", "--no-cache",
                   str(FIXTURES / "no_wallclock_bad.py")])
    out = capsys.readouterr().out
    assert status == 1
    assert "no_wallclock_bad.py:8:" in out


def test_cli_exits_zero_on_clean_file(capsys):
    status = main(["--select", "lint", "--no-cache",
                   str(FIXTURES / "no_wallclock_ok.py")])
    assert status == 0
    assert "clean" in capsys.readouterr().out


def test_cli_select_limits_rules(capsys):
    status = main(["--select", "lint:mutable-default-arg", "--no-cache",
                   str(FIXTURES / "no_wallclock_bad.py")])
    assert status == 0  # the wallclock fixture has no mutable defaults


def test_cli_rejects_unknown_rule():
    with pytest.raises(SystemExit) as excinfo:
        main(["--select", "lint:no-such-rule", str(FIXTURES)])
    assert excinfo.value.code == 2


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULE_IDS:
        assert f"lint:{rule_id}:" in out


def test_cli_json_format(capsys):
    status = main(["--select", "lint", "--no-cache", "--format", "json",
                   str(FIXTURES / "mutable_default_bad.py")])
    assert status == 1
    payload = json.loads(capsys.readouterr().out)
    assert [v["rule"] for v in payload["findings"]["lint"]] == \
        ["mutable-default-arg"] * 3


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "no-wallclock" in result.stdout


def test_directory_scan_finds_every_rule_at_least_once():
    rules = [cls() for cls in registered_rules().values()]
    violations = analyze_paths([FIXTURES], rules)
    assert {v.rule for v in violations} == ALL_RULE_IDS
