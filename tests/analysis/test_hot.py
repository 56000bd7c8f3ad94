"""Hot-path analyzer (hot): static rules and the profiler.

Each rule gets a *bad* fixture (exact rule ids and line numbers) and a
*clean* twin (silence).  Reachability is the scoping contract under
test: identical patterns in code that never reaches a
``schedule``/``push`` sink must stay silent.  The dynamic half is
exercised against a real cProfile run: a finding in the function the
profile actually entered must outrank the identical finding in code
the profile never touched, and ``--budget`` gates on that measured
share.
"""

from __future__ import annotations

import cProfile
import importlib.util
import json
import pstats
import sys
from pathlib import Path

import pytest

from repro.analysis.front import build_hot_program, main, run_suite
from repro.analysis.hot import registered_rules
from repro.analysis.hot.profile import (
    HotnessIndex,
    ProfileScenario,
    rank_findings,
    scenarios,
)

FIXTURES = (Path(__file__).resolve().parent.parent / "fixtures"
            / "analysis" / "hot")

ALL_RULE_IDS = {
    "allocation-in-hot-path",
    "unslotted-hot-class",
    "attribute-chain-in-hot-loop",
    "item-call-in-hot-loop",
    "exception-control-flow-in-hot-path",
}


def analyze_hot(paths, rule_ids=None, cache_dir=None):
    """hot's findings over ``paths`` (default: every hot rule)."""
    selection = {"hot": rule_ids or sorted(ALL_RULE_IDS)}
    return run_suite(paths, selection, cache_dir)["hot"]


def findings(target: str, rule_id: str = None):
    """(rule, line) pairs from the analyzer over one fixture file."""
    rule_ids = None if rule_id is None else [rule_id]
    return [(v.rule, v.line)
            for v in analyze_hot([FIXTURES / target], rule_ids)]


def load_fixture_module(name: str):
    spec = importlib.util.spec_from_file_location(
        name, FIXTURES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_registry_has_the_five_hot_rules():
    registry = registered_rules()
    assert set(registry) == ALL_RULE_IDS
    for rule_id, rule_class in registry.items():
        assert rule_class.id == rule_id
        assert rule_class.description


# ----------------------------------------------------------------------
# Rules, positive and negative
# ----------------------------------------------------------------------
def test_allocation_in_hot_path_positive():
    assert findings("alloc_bad.py", "allocation-in-hot-path") == [
        ("allocation-in-hot-path", 6),   # loop-invariant tuple
        ("allocation-in-hot-path", 10),  # same list built at 2 sites
    ]


def test_allocation_in_hot_path_negative():
    # Hoisted, loop-dependent, and constant-folded allocations pass.
    assert findings("alloc_ok.py") == []


def test_unslotted_hot_class_positive_reports_class_line():
    assert findings("unslotted_bad.py", "unslotted-hot-class") == [
        ("unslotted-hot-class", 4),
    ]


def test_unslotted_hot_class_negative():
    # __slots__, @dataclass(slots=True), and exception types all pass.
    assert findings("unslotted_ok.py") == []


def test_attribute_chain_positive():
    assert findings("chain_bad.py", "attribute-chain-in-hot-loop") == [
        ("attribute-chain-in-hot-loop", 5),   # while-loop re-read
        ("attribute-chain-in-hot-loop", 11),  # per-event double load
    ]


def test_attribute_chain_negative_prefix_bound():
    assert findings("chain_ok.py") == []


def test_item_call_positive():
    assert findings("probe_bad.py", "item-call-in-hot-loop") == [
        ("item-call-in-hot-loop", 6),   # loop-invariant probe
        ("item-call-in-hot-loop", 10),  # same probe evaluated twice
    ]


def test_item_call_negative_hoisted_or_keyed():
    assert findings("probe_ok.py") == []


def test_exception_control_flow_positive():
    rows = findings("except_bad.py",
                    "exception-control-flow-in-hot-path")
    assert rows == [("exception-control-flow-in-hot-path", 5)]


def test_exception_control_flow_negative():
    # .get with default, a re-raising handler, and an unexpected
    # exception type are all legitimate.
    assert findings("except_ok.py") == []


def test_unreachable_code_is_out_of_scope():
    # cold_code.py repeats every bad pattern but never schedules or
    # pushes; nothing is kernel-reachable, so nothing fires.
    assert findings("cold_code.py") == []


def test_suppression_comment_is_honoured():
    assert findings("suppressed.py") == []


def test_findings_are_sorted_and_stable():
    first = analyze_hot([FIXTURES])
    second = analyze_hot([FIXTURES])
    assert first == second == sorted(first)


# ----------------------------------------------------------------------
# The shared program cache
# ----------------------------------------------------------------------
def test_warm_cache_skips_extraction(tmp_path, monkeypatch):
    import repro.analysis.front as front

    target = tmp_path / "mod.py"
    target.write_text(
        (FIXTURES / "unslotted_bad.py").read_text())

    calls = []
    real = front.hot_summary_tree

    def counting(tree, path):
        calls.append(path)
        return real(tree, path)

    monkeypatch.setattr(front, "hot_summary_tree", counting)

    cache_dir = tmp_path / "cache"
    cold = analyze_hot([target], cache_dir=cache_dir)
    assert len(cold) == 1 and len(calls) == 1

    calls.clear()
    warm = analyze_hot([target], cache_dir=cache_dir)
    assert warm == cold
    assert calls == []  # extraction fully skipped

    target.write_text(target.read_text() + "\n# touched\n")
    assert analyze_hot([target], cache_dir=cache_dir) == cold
    assert len(calls) == 1  # stat change re-extracts


def test_shared_program_parameter_skips_verify_extraction(monkeypatch):
    # One parse per file feeds verify, det and hot: no analyzer runs
    # an extraction of its own.
    import repro.analysis.front as front

    calls = []
    real = front.parse_source

    def counting(source, path):
        calls.append(path)
        return real(source, path)

    monkeypatch.setattr(front, "parse_source", counting)
    target = FIXTURES / "chain_bad.py"
    results = run_suite([target])  # verify, det and hot all run
    assert calls == [target]
    assert [(v.rule, v.line) for v in results["hot"]] == [
        ("attribute-chain-in-hot-loop", 5),
        ("attribute-chain-in-hot-loop", 11),
    ]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_exit_codes_and_text_output(capsys):
    assert main([str(FIXTURES / "alloc_ok.py"), "--select", "hot",
                 "--no-cache"]) == 0
    assert "clean" in capsys.readouterr().out
    assert main([str(FIXTURES / "alloc_bad.py"), "--select", "hot",
                 "--no-cache"]) == 1
    out = capsys.readouterr().out
    assert "allocation-in-hot-path" in out


def test_cli_json_format(capsys):
    assert main([str(FIXTURES / "unslotted_bad.py"), "--select", "hot",
                 "--no-cache", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"]["hot"][0]["rule"] == "unslotted-hot-class"


def test_cli_sarif_format(capsys):
    assert main([str(FIXTURES / "unslotted_bad.py"), "--select", "hot",
                 "--no-cache", "--format", "sarif"]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    (run,) = log["runs"]
    assert run["tool"]["driver"]["name"] == "repro-hot"
    (result,) = run["results"]
    assert result["ruleId"] == "unslotted-hot-class"
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 4
    assert region["startColumn"] == 1  # SARIF columns are 1-based


def test_cli_select_runs_one_rule(capsys):
    assert main([str(FIXTURES / "alloc_bad.py"), "--no-cache",
                 "--select", "hot:unslotted-hot-class"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["--select", "hot:no-such-rule", str(FIXTURES)])


def test_cli_list_rules_and_scenarios(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert all(f"hot:{rule_id}:" in out for rule_id in ALL_RULE_IDS)
    assert main(["--list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("fig07", "fault_sweep", "heavy_traffic"):
        assert f"profile:{name}:" in out
    assert "perturb:fig07:" in out


def test_cli_budget_requires_profile():
    with pytest.raises(SystemExit) as excinfo:
        main(["--budget", "5", str(FIXTURES)])
    assert excinfo.value.code == 2


# ----------------------------------------------------------------------
# The profile join
# ----------------------------------------------------------------------
class _Queue:
    __slots__ = ("items",)

    def __init__(self):
        self.items = []

    def push(self, value):
        self.items.append(value)


def _profiled_index(module, calls: int = 200) -> HotnessIndex:
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        for _ in range(calls):
            module.hot_path(_Queue(), list(range(50)), 1.0)
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    return HotnessIndex(stats, stats.total_tt)


def test_profile_ranks_hot_finding_above_cold_same_finding():
    module = load_fixture_module("ranked")
    index = _profiled_index(module)
    target = FIXTURES / "ranked.py"
    hot = build_hot_program([target])
    rows = analyze_hot([target])
    assert len(rows) == 2  # same finding in hot_path and cold_path

    ranked = rank_findings(rows, hot, index)
    (first, first_share), (second, second_share) = ranked
    assert first.line < second.line  # hot_path is defined first
    assert first_share is not None and first_share > 0.0
    assert second_share is None  # cold_path: never profiled


def test_budget_gate_fires_only_on_measured_hot_findings(
        tmp_path, monkeypatch, capsys):
    import repro.analysis.hot.profile as profile_mod

    module = load_fixture_module("ranked")

    def run_fixture(horizon):
        for _ in range(200):
            module.hot_path(_Queue(), list(range(50)), 1.0)
        return 200, horizon

    def run_elsewhere(horizon):
        sum(range(10_000))
        return 0, horizon

    fake = dict(profile_mod._SCENARIOS)
    fake["_fixture"] = ProfileScenario("_fixture", 0.01, run_fixture,
                                       "test scenario")
    fake["_elsewhere"] = ProfileScenario("_elsewhere", 0.01,
                                         run_elsewhere, "test scenario")
    monkeypatch.setattr(profile_mod, "_SCENARIOS", fake)
    assert set(scenarios()) >= {"_fixture", "_elsewhere"}

    target = str(FIXTURES / "ranked.py")
    # The profiled run spends nearly all its time in hot_path, so a
    # small budget trips on that finding...
    assert main([target, "--no-cache", "--profile", "_fixture",
                 "--budget", "1"]) == 1
    out = capsys.readouterr().out
    assert "ranked by '_fixture' profile" in out
    assert "cold" in out  # cold_path's finding is reported, unranked

    # ...while a scenario that never enters the fixture leaves every
    # finding cold and the gate shut.
    assert main([target, "--no-cache", "--profile", "_elsewhere",
                 "--budget", "1"]) == 0
    capsys.readouterr()


def test_profile_bench_record(tmp_path, monkeypatch):
    import repro.analysis.hot.profile as profile_mod
    from repro.analysis import bench

    module = load_fixture_module("ranked")

    def run_fixture(horizon):
        module.hot_path(_Queue(), list(range(10)), 1.0)
        return 10, horizon

    fake = dict(profile_mod._SCENARIOS)
    fake["_fixture"] = ProfileScenario("_fixture", 0.01, run_fixture,
                                       "test scenario")
    monkeypatch.setattr(profile_mod, "_SCENARIOS", fake)

    bench_dir = tmp_path / "bench"
    assert main([str(FIXTURES / "ranked.py"), "--no-cache",
                 "--profile", "_fixture", "--budget", "99",
                 "--bench-dir", str(bench_dir)]) in (0, 1)
    (record_path,) = bench_dir.glob("BENCH_hot-profile-_fixture.json")
    record = bench.read_record(record_path)
    assert record.experiment == "hot-profile-_fixture"
    assert record.cells == 1 and record.workers == 1


def test_unknown_scenario_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(["--profile", "no-such-scenario", str(FIXTURES)])
