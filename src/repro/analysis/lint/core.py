"""The lint engine: rules, violations, suppressions, and the file driver.

Why a bespoke linter?  The reproduction's guarantees (paper eqs. 10-17)
only hold if the *simulator itself* is deterministic and
unit-consistent.  Generic linters cannot know that every stochastic
draw must flow through :class:`repro.sim.rng.RandomStreams`, that all
arithmetic stays in the SI unit system of :mod:`repro.units`, or that
simulated timestamps must never be compared with raw float equality.
The rules in :mod:`repro.analysis.lint.rules` encode exactly those
repo-specific invariants; this module supplies the machinery they run
on.

Suppression syntax
------------------
A finding on line *N* is silenced by a comment **on that same line**::

    t = time.time()  # repro: disable=no-wallclock -- measuring real throughput

Several rules may be listed, comma-separated::

    # repro: disable=no-wallclock,no-ambient-random

A suppression silences only the named rule(s) on its own line; there is
deliberately no file- or block-level form, so every exemption carries
its justification next to the code it excuses.
"""

from __future__ import annotations

import ast
import re
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
)

from repro.analysis.lint.cache import AnalysisCache

__all__ = [
    "Violation",
    "Rule",
    "FileContext",
    "LintError",
    "register",
    "registered_rules",
    "analyze_source",
    "analyze_file",
    "analyze_paths",
    "iter_python_files",
    "read_source",
    "parse_source",
    "dotted_name",
]


class LintError(Exception):
    """A file could not be analyzed (unreadable or not valid Python)."""


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: where, which rule, and what to do about it."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


class FileContext:
    """Everything a rule may inspect about one source file."""

    def __init__(self, path: Path, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        #: Path components, used for path-scoped exemptions
        #: (``sim/rng.py``).
        self.parts: Tuple[str, ...] = path.parts

    def walk(self) -> Iterator[ast.AST]:
        return ast.walk(self.tree)

    def is_file(self, *tail: str) -> bool:
        """True when the path ends with the given components."""
        return self.parts[-len(tail):] == tail


class Rule(ABC):
    """One invariant check.  Subclasses set ``id`` and ``description``."""

    #: Stable identifier used in reports and suppression comments.
    id: str = ""
    #: One-line summary shown by ``--list-rules`` and the docs.
    description: str = ""

    @abstractmethod
    def check(self, context: FileContext) -> Iterator[Violation]:
        """Yield every violation of this rule in ``context``."""

    def violation(self, context: FileContext, node: ast.AST,
                  message: str) -> Violation:
        return Violation(path=str(context.path),
                         line=getattr(node, "lineno", 0),
                         col=getattr(node, "col_offset", 0),
                         rule=self.id, message=message)


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the default registry."""
    if not rule_class.id:
        raise ValueError(f"rule {rule_class.__name__} has no id")
    if rule_class.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.id!r}")
    _REGISTRY[rule_class.id] = rule_class
    return rule_class


def registered_rules() -> Dict[str, Type[Rule]]:
    """The default registry, importing the built-in rules on first use."""
    # Imported lazily so core.py never depends on rules.py at import
    # time (rules.py imports this module for the base classes).
    from repro.analysis.lint import rules as _rules  # noqa: F401
    return dict(_REGISTRY)


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
#: ``# repro: disable=rule-a,rule-b`` followed by optional free text.
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*disable=([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)")


def suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> rule ids disabled on that line."""
    disabled: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is not None:
            names = frozenset(
                name.strip() for name in match.group(1).split(","))
            disabled[lineno] = names
    return disabled


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, ``""`` otherwise."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def read_source(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"{path}: unreadable: {exc}") from exc


def parse_source(source: str, path: Path) -> ast.Module:
    try:
        return ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise LintError(f"{path}: not valid Python: {exc}") from exc


def analyze_source(source: str, path: Path,
                   rules: Iterable[Rule]) -> List[Violation]:
    """Run ``rules`` over one source string, honouring suppressions."""
    context = FileContext(path, source, parse_source(source, path))
    disabled = suppressions(source)
    findings: List[Violation] = []
    for rule in rules:
        for violation in rule.check(context):
            if rule.id in disabled.get(violation.line, frozenset()):
                continue
            findings.append(violation)
    return sorted(findings)


def analyze_file(path: Path, rules: Iterable[Rule]) -> List[Violation]:
    return analyze_source(read_source(path), path, rules)


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted, deduplicated file list."""
    seen = set()
    collected: List[Path] = []
    for path in paths:
        if path.is_dir():
            collected.extend(sorted(path.rglob("*.py")))
        else:
            collected.append(path)
    for path in collected:
        if path not in seen:
            seen.add(path)
            yield path


def analyze_paths(paths: Iterable[Path], rules: Iterable[Rule],
                  cache: Optional[AnalysisCache] = None
                  ) -> List[Violation]:
    """Analyze every ``*.py`` under ``paths`` with the given rules.

    ``cache`` replays and records per-file findings.  It must only
    ever see full-rule-set runs: an entry written by a rule subset
    would later replay as a stale, partial result.
    """
    rule_list = list(rules)
    findings: List[Violation] = []
    for path in iter_python_files(paths):
        payload = cache.get(path) if cache is not None else None
        if payload is not None and "violations" in payload:
            findings.extend(Violation(**item)
                            for item in payload["violations"])
            continue
        file_findings = analyze_file(path, rule_list)
        if cache is not None:
            cache.put(path, {"violations": [
                asdict(v) for v in file_findings]})
        findings.extend(file_findings)
    return sorted(findings)
