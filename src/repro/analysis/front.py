"""``repro-analyze`` — the one entry point to the analyzer suite.

The static run (the default) runs four analyzers in one process:

* **lint** — per-file DES-invariant rules (cached findings);
* **verify** — whole-program semantic rules;
* **det** — determinism & parallel-safety rules;
* **hot** — hot-path performance rules.

verify, det and hot share one assembled
:class:`~repro.analysis.hot.model.HotProgram`.  Each file is parsed
once into its verify summary and its hot-cost facts, and both are
cached together in one ``program`` entry, so a warm full-tree run
reads ``lint.json`` and ``program.json`` and extracts nothing.

``--select`` filters at two grains: ``--select det`` runs one
analyzer, ``--select hot:unslotted-hot-class`` one rule.  Output is
``text`` (per-analyzer sections), ``json`` (one object per
analyzer), or ``sarif`` (one SARIF 2.1.0 log with one run per
analyzer — what GitHub code scanning ingests).  ``--changed``
reports only findings in files differing from the base revision; the
whole program is still assembled so cross-module facts stay exact.

Two dynamic modes replace the static run:

* ``--perturb SCENARIO`` — rerun the scenario under shuffled
  tie-break, shuffled session registration, ``workers=1`` vs
  ``workers=N`` and shuffled space-parallel partitions, and diff
  observables and traces (:mod:`repro.analysis.det.perturb`);
* ``--profile SCENARIO`` — run the scenario under cProfile and rank
  the hot findings by the measured share of their enclosing function
  (:mod:`repro.analysis.hot.profile`); ``--budget PCT`` gates the
  exit status on that share.

With ``--bench-dir`` either mode stamps a ``BENCH_*.json`` record.

Exit status: 0 clean; 1 findings, a perturbation divergence, or a
busted budget; 2 usage error or unanalyzable file.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.hot.model import HotProgram, hot_summary_tree
from repro.analysis.lint.cache import DEFAULT_CACHE_DIR, AnalysisCache
from repro.analysis.lint.changed import GitError, changed_python_files
from repro.analysis.lint.core import (
    LintError,
    Violation,
    analyze_paths,
    iter_python_files,
    parse_source,
    read_source,
)
from repro.analysis.lint.reporters import render_text
from repro.analysis.verify.model import Program, summarize_tree

__all__ = [
    "ANALYZERS",
    "build_hot_program",
    "build_parser",
    "check",
    "main",
    "registries",
    "run_suite",
]

#: Analyzer execution order (lint's per-file pass first, then the
#: whole-program passes over the shared HotProgram).
ANALYZERS: Tuple[str, ...] = ("lint", "verify", "det", "hot")

#: Simulated seconds per ``--perturb`` run when ``--horizon`` is unset
#: (``--profile`` falls back to each scenario's own default).
PERTURB_HORIZON = 0.25


def registries() -> Dict[str, Dict[str, type]]:
    """``{analyzer: {rule id: rule class}}`` for all four analyzers."""
    from repro.analysis.det.rules import registered_rules as det_rules
    from repro.analysis.hot.rules import registered_rules as hot_rules
    from repro.analysis.lint.core import registered_rules as lint_rules
    from repro.analysis.verify.rules import (
        registered_rules as verify_rules,
    )
    return {
        "lint": lint_rules(),
        "verify": verify_rules(),
        "det": det_rules(),
        "hot": hot_rules(),
    }


@contextmanager
def _cache(cache_dir: Optional[Path],
           kind: str) -> Iterator[Optional[AnalysisCache]]:
    """The ``kind`` cache under ``cache_dir``, saved on the way out."""
    if cache_dir is None:
        yield None
        return
    cache = AnalysisCache(cache_dir, kind=kind)
    try:
        yield cache
    finally:
        cache.save()


def build_hot_program(paths: Iterable[Path],
                      cache: Optional[AnalysisCache] = None
                      ) -> HotProgram:
    """Parse every ``*.py`` under ``paths`` once, through the
    ``program`` cache, and join verify summaries with hot facts.

    ``.program`` of the result is the verify
    :class:`~repro.analysis.verify.model.Program`.
    """
    summaries: List[Dict[str, Any]] = []
    hot_facts: List[Dict[str, Any]] = []
    for path in iter_python_files(paths):
        payload = cache.get(path) if cache is not None else None
        if payload is None or "summary" not in payload \
                or "hot" not in payload:
            source = read_source(path)
            tree = parse_source(source, path)
            payload = {"summary": summarize_tree(tree, source, path),
                       "hot": hot_summary_tree(tree, path)}
            if cache is not None:
                cache.put(path, payload)
        summaries.append(payload["summary"])
        hot_facts.append(payload["hot"])
    return HotProgram(Program(summaries), hot_facts)


def check(rules: Iterable[Any],
          target: Any) -> List[Violation]:
    """Run whole-program ``rules`` over ``target`` — a
    :class:`~repro.analysis.verify.model.Program` or a
    :class:`~repro.analysis.hot.model.HotProgram` — minus the
    findings a ``# repro: disable=`` comment suppresses."""
    return sorted(
        violation for rule in rules for violation in rule.check(target)
        if not target.is_suppressed(violation.path, violation.line,
                                    violation.rule))


def run_suite(paths: Sequence[Path],
              selection: Optional[Dict[str, List[str]]] = None,
              cache_dir: Optional[Path] = None
              ) -> Dict[str, List[Violation]]:
    """Run the selected analyzers (default: every rule of all four)
    over ``paths``; ``{analyzer: sorted findings}``.

    Raises :class:`LintError` when any file cannot be analyzed.
    """
    registry = registries()
    if selection is None:
        selection = {name: sorted(registry[name]) for name in ANALYZERS}
    results: Dict[str, List[Violation]] = {}

    if "lint" in selection:
        rules = [registry["lint"][rule_id]()
                 for rule_id in selection["lint"]]
        # Cached entries hold full-rule-set results; subset runs must
        # neither read nor write them.
        full = set(selection["lint"]) == set(registry["lint"])
        with _cache(cache_dir if full else None, "lint") as cache:
            results["lint"] = analyze_paths(paths, rules, cache)

    program_analyzers = [name for name in ANALYZERS[1:]
                         if name in selection]
    if program_analyzers:
        with _cache(cache_dir, "program") as cache:
            hot = build_hot_program(paths, cache)
        for name in program_analyzers:
            rules = [registry[name][rule_id]()
                     for rule_id in selection[name]]
            results[name] = check(
                rules, hot if name == "hot" else hot.program)
    return results


def _parse_selection(raw: Optional[List[str]],
                     registry: Dict[str, Dict[str, type]],
                     parser: argparse.ArgumentParser
                     ) -> Dict[str, List[str]]:
    """``{analyzer: [rule ids]}`` for the analyzers that should run."""
    if not raw:
        return {name: sorted(registry[name]) for name in ANALYZERS}
    selection: Dict[str, List[str]] = {}
    for item in raw:
        analyzer, _, rule_id = item.partition(":")
        if analyzer not in registry:
            parser.error(
                f"unknown analyzer {analyzer!r} "
                f"(available: {', '.join(ANALYZERS)})")
        if rule_id:
            if rule_id not in registry[analyzer]:
                parser.error(
                    f"unknown rule {rule_id!r} for analyzer "
                    f"{analyzer!r} (see --list-rules)")
            selection.setdefault(analyzer, []).append(rule_id)
        else:
            selection[analyzer] = sorted(registry[analyzer])
    return selection


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description=("The Leave-in-Time analyzer suite: lint, "
                     "verify, det and hot in one process over one "
                     "shared cache, plus the schedule-perturbation "
                     "differ (--perturb) and the profile-guided "
                     "hot-path ranking (--profile)."))
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)")
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)")
    parser.add_argument(
        "--select", action="append", metavar="ANALYZER[:RULE]",
        default=None,
        help="run only this analyzer, or only this rule of it "
             "(repeatable; e.g. --select det --select "
             "hot:unslotted-hot-class)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every analyzer's rules and exit")
    parser.add_argument(
        "--changed", action="store_true",
        help="report only findings in files differing from origin/main "
             "(or --since) plus untracked files; whole-program "
             "analyzers still assemble the full program")
    parser.add_argument(
        "--since", metavar="REV", default=None,
        help="base revision for --changed (default: origin/main, "
             "falling back to main, then HEAD)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="re-extract every file instead of using the caches")
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=str(DEFAULT_CACHE_DIR),
        help=f"cache directory (default: {DEFAULT_CACHE_DIR})")

    dynamic = parser.add_argument_group("dynamic modes")
    mode = dynamic.add_mutually_exclusive_group()
    mode.add_argument(
        "--perturb", metavar="SCENARIO", default=None,
        help="run the schedule-perturbation differ on this scenario "
             "instead of the static analyzers")
    mode.add_argument(
        "--profile", metavar="SCENARIO", default=None,
        help="run this scenario under cProfile and rank the hot "
             "findings by measured hotness")
    dynamic.add_argument(
        "--list-scenarios", action="store_true",
        help="print the perturbable and profileable scenarios and exit")
    dynamic.add_argument(
        "--horizon", type=float, default=None, metavar="SECONDS",
        help=f"simulated seconds per run (default: {PERTURB_HORIZON:g} "
             f"for --perturb, per-scenario for --profile)")
    dynamic.add_argument(
        "--bench-dir", metavar="DIR", default=None,
        help="write a BENCH_perturb-<scenario>.json or "
             "BENCH_hot-profile-<scenario>.json record into this "
             "directory")
    dynamic.add_argument(
        "--modes", default=None, metavar="M1,M2",
        help="--perturb: comma-separated subset of tiebreak,"
             "registration,workers,partitions (default: all)")
    dynamic.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="--perturb: pool width of the workers mode (default: 4)")
    dynamic.add_argument(
        "--rounds", type=int, default=2, metavar="N",
        help="--perturb: perturbation seeds per single-run mode "
             "(default: 2)")
    dynamic.add_argument(
        "--budget", type=float, default=None, metavar="PCT",
        help="--profile: exit 1 only when a finding's enclosing "
             "function consumed at least PCT%% of the profiled run")
    return parser


def _list_scenarios() -> None:
    from repro.analysis.det.perturb import scenarios as perturbable
    from repro.analysis.hot.profile import scenarios as profileable

    for name, scenario_class in sorted(perturbable().items()):
        summary = (scenario_class.__doc__ or "").strip().splitlines()
        print(f"perturb:{name}: {summary[0] if summary else ''}")
    for name, scenario in sorted(profileable().items()):
        print(f"profile:{name}: {scenario.description} "
              f"(default horizon {scenario.default_horizon:g}s)")


def _run_perturb(options: argparse.Namespace,
                 parser: argparse.ArgumentParser) -> int:
    # Imported here: the differ pulls the experiment stack, which the
    # static run must not pay for.
    from repro.analysis import bench
    from repro.analysis.det.perturb import (
        DEFAULT_MODES,
        perturb_scenario,
        scenarios,
    )

    registry = scenarios()
    if options.perturb not in registry:
        parser.error(f"unknown scenario {options.perturb!r} "
                     f"(available: {', '.join(sorted(registry))})")
    modes: Sequence[str] = DEFAULT_MODES
    if options.modes:
        modes = tuple(part.strip() for part in options.modes.split(",")
                      if part.strip())
        unknown = [name for name in modes if name not in DEFAULT_MODES]
        if unknown:
            parser.error(f"unknown perturbation mode(s): "
                         f"{', '.join(unknown)} "
                         f"(available: {', '.join(DEFAULT_MODES)})")
    horizon = PERTURB_HORIZON if options.horizon is None \
        else options.horizon
    watch = bench.Stopwatch()
    report = perturb_scenario(registry[options.perturb](), modes,
                              horizon=horizon, workers=options.workers,
                              rounds=options.rounds)
    print(report.render())
    if options.bench_dir is not None:
        bench.write_record(bench.make_record(
            f"perturb-{report.scenario}",
            wall_time_s=watch.elapsed(),
            events_dispatched=report.events,
            workers=options.workers if "workers" in report.modes else 1,
            simulated_s=horizon * report.runs,
            cells=report.runs,
            deterministic=report.deterministic,
        ), options.bench_dir)
    return 0 if report.deterministic else 1


def _run_profile(options: argparse.Namespace,
                 parser: argparse.ArgumentParser, paths: List[Path],
                 selection: Dict[str, List[str]],
                 cache_dir: Optional[Path]) -> int:
    # Imported here: the profiled scenarios pull the experiment stack.
    from repro.analysis import bench
    from repro.analysis.hot.profile import (
        profile_scenario,
        rank_findings,
        scenarios,
    )

    if options.profile not in scenarios():
        parser.error(f"unknown scenario {options.profile!r} "
                     f"(available: {', '.join(sorted(scenarios()))})")
    with _cache(cache_dir, "program") as cache:
        hot = build_hot_program(paths, cache)
    registry = registries()["hot"]
    findings = check([registry[rule_id]()
                      for rule_id in selection.get("hot", [])], hot)

    watch = bench.Stopwatch()
    report = profile_scenario(options.profile, horizon=options.horizon)
    ranked = rank_findings(findings, hot, report.index)
    print(f"hot-path findings ranked by {report.scenario!r} profile "
          f"({report.wall_time_s:.3f}s profiled, "
          f"{report.simulated_s:g} simulated seconds)")
    for violation, fraction in ranked:
        share = "  cold" if fraction is None \
            else f"{100.0 * fraction:5.1f}%"
        print(f"{share}  {violation.render()}")
    if not ranked:
        print("clean (no static findings to rank)")

    if options.bench_dir is not None:
        bench.write_record(bench.make_record(
            f"hot-profile-{report.scenario}",
            wall_time_s=watch.elapsed(),
            events_dispatched=report.events,
            workers=1,
            simulated_s=report.simulated_s,
            cells=1,
        ), options.bench_dir)

    if options.budget is None:
        return 0
    return 1 if any(fraction is not None
                    and 100.0 * fraction >= options.budget
                    for _violation, fraction in ranked) else 0


def _render(results: Dict[str, List[Violation]], output_format: str,
            files_checked: int) -> str:
    if output_format == "sarif":
        from repro.analysis.sarif import render_sarif
        registry = registries()
        return render_sarif(
            (f"repro-{name}",
             {rule_id: rule.description
              for rule_id, rule in registry[name].items()},
             violations)
            for name, violations in results.items())
    if output_format == "json":
        return json.dumps(
            {"files_checked": files_checked,
             "findings": {name: [asdict(v) for v in violations]
                          for name, violations in results.items()}},
            indent=2, sort_keys=True)
    return "\n".join(
        f"== {name} ==\n"
        + render_text(violations, files_checked=files_checked)
        for name, violations in results.items())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.budget is not None and options.profile is None:
        parser.error("--budget requires --profile")

    if options.list_rules:
        registry = registries()
        for name in ANALYZERS:
            for rule_id, rule in sorted(registry[name].items()):
                print(f"{name}:{rule_id}: {rule.description}")
        return 0
    if options.list_scenarios:
        _list_scenarios()
        return 0
    if options.perturb is not None:
        return _run_perturb(options, parser)

    selection = _parse_selection(options.select, registries(), parser)
    paths: List[Path] = []
    for raw in options.paths:
        path = Path(raw)
        if not path.exists():
            parser.error(f"no such file or directory: {raw}")
        paths.append(path)
    cache_dir = None if options.no_cache else Path(options.cache_dir)

    try:
        if options.profile is not None:
            return _run_profile(options, parser, paths, selection,
                                cache_dir)
        changed: Optional[List[Path]] = None
        if options.changed:
            changed = changed_python_files(paths, since=options.since)
            if not changed:
                print("clean (no changed files)")
                return 0
        results = run_suite(paths, selection, cache_dir)
    except (LintError, GitError) as exc:
        print(f"repro-analyze: error: {exc}", file=sys.stderr)
        return 2

    if changed is not None:
        changed_set = {path.resolve() for path in changed}
        results = {name: [v for v in violations
                          if Path(v.path).resolve() in changed_set]
                   for name, violations in results.items()}
    files_checked = sum(1 for _ in iter_python_files(paths))
    print(_render(results, options.format, files_checked))
    return 1 if any(results.values()) else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
