"""DES-invariant static analysis (``repro-analyze``'s lint).

An AST-based per-file lint pass encoding the repo-specific invariants
the reproduction's correctness rests on: determinism (no wall-clock,
no ambient RNG), single-SI unit discipline, and tolerance-based
timestamp comparison.  Run it with ``python -m repro.analysis
--select lint [paths]`` or the ``repro-analyze`` console script;
tier-1 tests gate ``src/`` on a clean run.

See ``docs/static_analysis.md`` for the rule catalogue, the
``# repro: disable=<rule>`` suppression syntax, and how to add a rule.
"""

from repro.analysis.lint.core import (
    FileContext,
    LintError,
    Rule,
    Violation,
    analyze_file,
    analyze_paths,
    analyze_source,
    register,
    registered_rules,
)
from repro.analysis.lint.reporters import render_json, render_text

__all__ = [
    "FileContext",
    "LintError",
    "Rule",
    "Violation",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "register",
    "registered_rules",
    "render_json",
    "render_text",
]
