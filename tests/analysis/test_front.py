"""``repro-analyze``: the one entry point to the four analyzers.

The contracts under test: all four analyzers run by default and their
exit codes merge; ``--select`` filters at analyzer and analyzer:rule
grain; the whole-program analyzers share one assembled program built
from one parse per file (so a run leaves exactly the ``lint`` and
``program`` cache files, and a warm run extracts nothing); the
dynamic modes reject contradictory flags; and one SARIF log carries
one run per analyzer.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.front import ANALYZERS, main

HOT_FIXTURES = (Path(__file__).resolve().parent.parent / "fixtures"
                / "analysis" / "hot")

CLEAN = "X = 1\n"
WALLCLOCK_BAD = "import time\n\nNOW = time.time()\n"


def test_all_four_analyzers_run_by_default(tmp_path, capsys):
    target = tmp_path / "ok.py"
    target.write_text(CLEAN)
    assert main([str(target), "--no-cache"]) == 0
    out = capsys.readouterr().out
    for name in ANALYZERS:
        assert f"== {name} ==" in out


def test_exit_codes_merge_across_analyzers(tmp_path, capsys):
    # A lint-only finding and a hot-only finding both drive exit 1,
    # whichever analyzer produced them.
    lint_bad = tmp_path / "lint_bad.py"
    lint_bad.write_text(WALLCLOCK_BAD)
    assert main([str(lint_bad), "--no-cache"]) == 1
    assert "no-wallclock" in capsys.readouterr().out

    assert main([str(HOT_FIXTURES / "unslotted_bad.py"),
                 "--no-cache"]) == 1
    assert "unslotted-hot-class" in capsys.readouterr().out


def test_unparsable_file_exits_2(tmp_path, capsys):
    target = tmp_path / "broken.py"
    target.write_text("def f(:\n")
    assert main([str(target), "--no-cache"]) == 2
    assert "not valid Python" in capsys.readouterr().err


def test_select_analyzer_grain(tmp_path, capsys):
    target = tmp_path / "lint_bad.py"
    target.write_text(WALLCLOCK_BAD)
    # Only hot selected: the lint finding is invisible, exit 0.
    assert main([str(target), "--no-cache", "--select", "hot"]) == 0
    out = capsys.readouterr().out
    assert "== hot ==" in out
    assert "== lint ==" not in out


def test_select_rule_grain(capsys):
    target = str(HOT_FIXTURES / "alloc_bad.py")
    assert main([target, "--no-cache", "--select",
                 "hot:unslotted-hot-class"]) == 0
    capsys.readouterr()
    assert main([target, "--no-cache", "--select",
                 "hot:allocation-in-hot-path"]) == 1
    assert "allocation-in-hot-path" in capsys.readouterr().out


def test_select_rejects_unknown_names():
    with pytest.raises(SystemExit):
        main(["--select", "nosuch", str(HOT_FIXTURES)])
    with pytest.raises(SystemExit):
        main(["--select", "hot:nosuch", str(HOT_FIXTURES)])


def test_list_rules_spans_all_analyzers(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "lint:no-wallclock" in out
    assert "verify:" in out
    assert "det:" in out
    assert "hot:unslotted-hot-class" in out


def test_shared_program_populates_only_its_cache_kinds(tmp_path,
                                                       capsys):
    target = tmp_path / "ok.py"
    target.write_text(CLEAN)
    cache_dir = tmp_path / "cache"
    assert main([str(target), "--cache-dir", str(cache_dir)]) == 0
    capsys.readouterr()
    # lint caches findings; program holds the one shared extraction
    # (verify summary + hot facts) that verify, det and hot all read.
    assert sorted(path.name for path in cache_dir.iterdir()) == [
        "lint.json", "program.json"]


def _count_parses(monkeypatch):
    """Record every file parse, lint's and the program extraction's."""
    import repro.analysis.front as front
    import repro.analysis.lint.core as lint_core

    calls = []
    real = lint_core.parse_source

    def counting(source, path):
        calls.append(path)
        return real(source, path)

    monkeypatch.setattr(lint_core, "parse_source", counting)
    monkeypatch.setattr(front, "parse_source", counting)
    return calls


def test_front_door_reuses_the_verify_cache(tmp_path, monkeypatch,
                                            capsys):
    target = tmp_path / "ok.py"
    target.write_text(CLEAN)
    cache_dir = tmp_path / "cache"
    calls = _count_parses(monkeypatch)

    assert main([str(target), "--cache-dir", str(cache_dir),
                 "--select", "verify", "--select", "det"]) == 0
    capsys.readouterr()
    assert len(calls) == 1  # one extraction feeds both analyzers

    calls.clear()
    assert main([str(target), "--cache-dir", str(cache_dir),
                 "--select", "verify", "--select", "det"]) == 0
    capsys.readouterr()
    assert calls == []  # warm: the program cache serves it


def test_warm_full_run_skips_all_extraction(tmp_path, monkeypatch,
                                           capsys):
    (tmp_path / "ok.py").write_text(CLEAN)
    (tmp_path / "lint_bad.py").write_text(WALLCLOCK_BAD)
    cache_dir = tmp_path / "cache"
    calls = _count_parses(monkeypatch)

    assert main([str(tmp_path), "--cache-dir", str(cache_dir)]) == 1
    cold_out = capsys.readouterr().out
    assert len(calls) == 4  # two files, once for lint, once for program

    calls.clear()
    assert main([str(tmp_path), "--cache-dir", str(cache_dir)]) == 1
    assert calls == []
    assert capsys.readouterr().out == cold_out  # findings replayed


def test_dynamic_modes_reject_contradictory_flags(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--perturb", "fig07", "--profile", "fig07"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["--budget", "5", str(HOT_FIXTURES)])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["--perturb", "no-such-scenario"])
    assert excinfo.value.code == 2


def test_sarif_log_has_one_run_per_analyzer(tmp_path, capsys):
    target = tmp_path / "ok.py"
    target.write_text(CLEAN)
    assert main([str(target), "--no-cache", "--format",
                 "sarif"]) == 0
    log = json.loads(capsys.readouterr().out)
    names = [run["tool"]["driver"]["name"] for run in log["runs"]]
    assert names == ["repro-lint", "repro-verify", "repro-det",
                     "repro-hot"]


def test_json_format_groups_by_analyzer(capsys):
    assert main([str(HOT_FIXTURES / "unslotted_bad.py"), "--no-cache",
                 "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["findings"]) == set(ANALYZERS)
    (finding,) = payload["findings"]["hot"]
    assert finding["rule"] == "unslotted-hot-class"
    assert payload["findings"]["lint"] == []
