"""Result cache and ``--changed`` fast paths of ``repro-analyze``.

The cache contract under test: a warm run re-analyzes *nothing*; any
stat change (content edit, ``touch``) or analyzer-implementation edit
invalidates; ``--no-cache`` and ``--select`` bypass; corrupt cache
files are rebuilt, not trusted.  The ``--changed`` tests run against a
throwaway git repository built in ``tmp_path``.
"""

from __future__ import annotations

import json
import subprocess

import pytest

import repro.analysis.lint.core as lint_core
from repro.analysis.front import main
from repro.analysis.lint.cache import AnalysisCache, implementation_fingerprint
from repro.analysis.lint.changed import (
    GitError,
    changed_python_files,
    resolve_base_revision,
)

BAD_SOURCE = "import time\n\nNOW = time.time()\n"
OK_SOURCE = "X = 1\n"


# ----------------------------------------------------------------------
# AnalysisCache unit behaviour
# ----------------------------------------------------------------------
def test_cache_round_trip_and_stat_invalidation(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(OK_SOURCE)

    cache = AnalysisCache(tmp_path / "cache", kind="lint")
    assert cache.get(target) is None  # cold
    cache.put(target, {"violations": []})
    assert cache.get(target) == {"violations": []}
    cache.save()

    reloaded = AnalysisCache(tmp_path / "cache", kind="lint")
    assert reloaded.get(target) == {"violations": []}
    assert reloaded.hits == 1

    target.write_text(OK_SOURCE + "Y = 2\n")  # stat signature changes
    assert reloaded.get(target) is None


def test_cache_rejects_corrupt_and_wrong_fingerprint_files(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(OK_SOURCE)
    cache_file = tmp_path / "cache" / "lint.json"
    cache_file.parent.mkdir()

    cache_file.write_text("not json{")
    assert AnalysisCache(tmp_path / "cache").get(target) is None

    cache_file.write_text(json.dumps({
        "fingerprint": "0" * 64,
        "entries": {str(target): {"stat": None, "payload": {}}}}))
    assert AnalysisCache(tmp_path / "cache").get(target) is None


def test_fingerprint_is_stable_within_a_process():
    assert implementation_fingerprint() == implementation_fingerprint()
    assert len(implementation_fingerprint()) == 64


def test_fingerprint_is_namespaced_per_analyzer():
    # Each kind hashes its own implementation set *and* the kind
    # string, so the two kinds can never share a fingerprint and a
    # cache file written under one can never validate for the other.
    prints = {kind: implementation_fingerprint(kind)
              for kind in ("lint", "program")}
    assert len(set(prints.values())) == 2


def test_hot_only_implementation_edit_invalidates_only_hot(
        tmp_path, monkeypatch):
    # The program fingerprint set (where the hot facts are cached) is
    # the lint set plus the extraction models.  Editing a hot-model
    # file must roll the "program" fingerprint while leaving "lint"
    # untouched — and an edit to a shared file must roll both.
    import repro.analysis.lint.cache as cache_mod

    shared = tmp_path / "shared_core.py"
    program_only = tmp_path / "hot_model.py"
    shared.write_text("SHARED = 1\n")
    program_only.write_text("HOT = 1\n")
    monkeypatch.setattr(cache_mod, "_IMPL_FILES_BY_KIND", {
        "lint": (shared,),
        "program": (shared, program_only),
    })

    lint_before = implementation_fingerprint("lint")
    program_before = implementation_fingerprint("program")
    program_only.write_text("HOT = 2\n")
    assert implementation_fingerprint("lint") == lint_before
    assert implementation_fingerprint("program") != program_before

    shared.write_text("SHARED = 2\n")
    assert implementation_fingerprint("lint") != lint_before


def test_hot_cache_entry_invalidated_by_fingerprint_roll(
        tmp_path, monkeypatch):
    # A program entry (verify summary + hot facts) written under one
    # fingerprint must come back cold after the implementation
    # (fingerprint) changes — the exact situation a model edit in a
    # new commit produces.
    import repro.analysis.lint.cache as cache_mod

    target = tmp_path / "mod.py"
    target.write_text(OK_SOURCE)
    cache = AnalysisCache(tmp_path / "cache", kind="program")
    cache.put(target, {"summary": {}, "hot": {}})
    cache.save()

    assert AnalysisCache(tmp_path / "cache", kind="program").get(
        target) is not None

    monkeypatch.setattr(cache_mod, "implementation_fingerprint",
                        lambda kind="lint": "f" * 64)
    stale = AnalysisCache(tmp_path / "cache", kind="program")
    assert stale.get(target) is None
    assert stale.misses == 1


def test_cross_analyzer_cache_file_is_never_served(tmp_path):
    # Regression for the shared-directory hazard: populate a cache as
    # one kind, then impersonate it as the other kind's file (the
    # exact on-disk state a rename/copy would produce). The second
    # kind must treat it as cold, not serve the foreign payload.
    target = tmp_path / "mod.py"
    target.write_text(OK_SOURCE)
    lint = AnalysisCache(tmp_path / "cache", kind="lint")
    lint.put(target, {"violations": []})
    lint.save()

    cache_dir = tmp_path / "cache"
    (cache_dir / "lint.json").rename(cache_dir / "program.json")
    program = AnalysisCache(cache_dir, kind="program")
    assert program.get(target) is None
    assert program.misses == 1


def test_lint_and_verify_kinds_are_separate_files(tmp_path):
    # verify's summaries are cached in the program kind.
    target = tmp_path / "mod.py"
    target.write_text(OK_SOURCE)
    lint = AnalysisCache(tmp_path / "cache", kind="lint")
    program = AnalysisCache(tmp_path / "cache", kind="program")
    lint.put(target, {"violations": []})
    lint.save()
    program.put(target, {"summary": {"module": "mod"}, "hot": {}})
    program.save()
    assert (tmp_path / "cache" / "lint.json").exists()
    assert (tmp_path / "cache" / "program.json").exists()
    assert AnalysisCache(tmp_path / "cache",
                         kind="program").get(target) == {
        "summary": {"module": "mod"}, "hot": {}}


# ----------------------------------------------------------------------
# CLI: warm runs re-analyze nothing
# ----------------------------------------------------------------------
def _count_analyze_calls(monkeypatch):
    calls = []
    real = lint_core.analyze_file

    def counting(path, rules):
        calls.append(path)
        return real(path, rules)

    monkeypatch.setattr(lint_core, "analyze_file", counting)
    return calls


def test_warm_cli_run_skips_analysis_entirely(tmp_path, monkeypatch, capsys):
    (tmp_path / "bad.py").write_text(BAD_SOURCE)
    (tmp_path / "ok.py").write_text(OK_SOURCE)
    cache_dir = str(tmp_path / "cache")
    calls = _count_analyze_calls(monkeypatch)

    assert main([str(tmp_path), "--select", "lint", "--cache-dir",
                 cache_dir]) == 1
    assert len(calls) == 2  # cold: both files parsed
    cold_out = capsys.readouterr().out
    assert "no-wallclock" in cold_out

    calls.clear()
    assert main([str(tmp_path), "--select", "lint", "--cache-dir",
                 cache_dir]) == 1
    assert calls == []  # warm: zero re-analysis
    assert "no-wallclock" in capsys.readouterr().out  # findings replayed

    # Editing one file re-analyzes exactly that file.
    (tmp_path / "ok.py").write_text(OK_SOURCE + "Y = 2\n")
    calls.clear()
    assert main([str(tmp_path), "--select", "lint", "--cache-dir",
                 cache_dir]) == 1
    assert calls == [tmp_path / "ok.py"]


def test_no_cache_flag_always_reanalyzes(tmp_path, monkeypatch):
    (tmp_path / "ok.py").write_text(OK_SOURCE)
    cache_dir = str(tmp_path / "cache")
    calls = _count_analyze_calls(monkeypatch)
    for _ in range(2):
        assert main([str(tmp_path), "--cache-dir", cache_dir,
                     "--no-cache"]) == 0
    assert len(calls) == 2
    assert not (tmp_path / "cache").exists()


def test_select_subset_bypasses_the_cache(tmp_path, monkeypatch):
    (tmp_path / "bad.py").write_text(BAD_SOURCE)
    cache_dir = str(tmp_path / "cache")
    calls = _count_analyze_calls(monkeypatch)
    # A subset run must not seed the cache with subset results...
    assert main([str(tmp_path), "--cache-dir", cache_dir,
                 "--select", "lint:no-ambient-random"]) == 0
    assert not (tmp_path / "cache").exists()
    # ...and a later full run must analyze from scratch.
    calls.clear()
    assert main([str(tmp_path), "--select", "lint", "--cache-dir",
                 cache_dir]) == 1
    assert len(calls) == 1


# ----------------------------------------------------------------------
# --changed against a throwaway git repository
# ----------------------------------------------------------------------
def _git(cwd, *args):
    subprocess.run(["git", *args], cwd=cwd, check=True,
                   capture_output=True, text=True)


@pytest.fixture()
def git_repo(tmp_path, monkeypatch):
    _git(tmp_path, "init", "-q", "-b", "main")
    _git(tmp_path, "config", "user.email", "t@example.invalid")
    _git(tmp_path, "config", "user.name", "t")
    src = tmp_path / "src"
    src.mkdir()
    (src / "committed.py").write_text(OK_SOURCE)
    (src / "untouched.py").write_text(OK_SOURCE)
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_changed_python_files_tracks_edits_and_untracked(git_repo):
    src = git_repo / "src"
    assert changed_python_files([src], since="HEAD") == []

    (src / "committed.py").write_text(OK_SOURCE + "Y = 2\n")
    (src / "fresh.py").write_text(OK_SOURCE)
    (src / "notes.txt").write_text("not python\n")
    changed = changed_python_files([src], since="HEAD")
    assert sorted(p.name for p in changed) == ["committed.py", "fresh.py"]

    # Files outside the requested roots are filtered out.
    (git_repo / "elsewhere.py").write_text(OK_SOURCE)
    changed = changed_python_files([src], since="HEAD")
    assert sorted(p.name for p in changed) == ["committed.py", "fresh.py"]


def test_resolve_base_revision_falls_back_to_head(git_repo):
    # No origin/main here, so the documented fallback chain ends at a
    # resolvable local revision.
    assert resolve_base_revision(None) in ("main", "HEAD")
    with pytest.raises(GitError):
        resolve_base_revision("no-such-rev")


def test_hot_changed_cli_restricts_findings_to_changed_files(
        git_repo, capsys):
    # The whole program is still assembled (reachability needs it),
    # but only findings in changed files are reported — and a clean
    # working tree short-circuits.
    assert main(["src", "--select", "hot", "--changed", "--since",
                 "HEAD", "--no-cache"]) == 0
    assert "no changed files" in capsys.readouterr().out

    hot_bad = (
        "class Record:\n"
        "    def __init__(self, when):\n"
        "        self.when = when\n"
        "\n"
        "\n"
        "def on_event(sim, now):\n"
        "    sim.schedule(now, Record(now))\n")
    (git_repo / "src" / "hot_dirty.py").write_text(hot_bad)
    assert main(["src", "--select", "hot", "--changed", "--since",
                 "HEAD", "--no-cache"]) == 1
    assert "unslotted-hot-class" in capsys.readouterr().out

    # The same finding vanishes when the file is already committed
    # (nothing changed), even though the program still contains it.
    _git(git_repo, "add", ".")
    _git(git_repo, "commit", "-q", "-m", "hot fixture")
    assert main(["src", "--select", "hot", "--changed", "--since",
                 "HEAD", "--no-cache"]) == 0
    assert "no changed files" in capsys.readouterr().out


def test_changed_cli_paths(git_repo, capsys):
    assert main(["src", "--changed", "--since", "HEAD",
                 "--no-cache"]) == 0
    assert "no changed files" in capsys.readouterr().out

    (git_repo / "src" / "dirty.py").write_text(BAD_SOURCE)
    assert main(["src", "--changed", "--since", "HEAD",
                 "--no-cache"]) == 1
    assert "no-wallclock" in capsys.readouterr().out

    assert main(["src", "--changed", "--since", "no-such-rev",
                 "--no-cache"]) == 2
