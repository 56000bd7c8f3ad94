"""SARIF 2.1.0 output shared by every analyzer in the suite.

One SARIF *log* holds one *run* per analyzer, so ``repro-analyze
--format sarif`` uploads lint, verify, det, and hot findings as a
single artifact that code-scanning UIs (GitHub's ``upload-sarif``
action among them) ingest directly.

Only the schema subset those consumers actually read is emitted:
tool name + rule metadata, and per-result rule id, message, and
physical location.  Columns are converted from the analyzers'
0-based ``col_offset`` convention to SARIF's 1-based one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.analysis.lint.core import Violation

__all__ = ["SARIF_VERSION", "sarif_log", "render_sarif"]

SARIF_VERSION = "2.1.0"
_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
           "master/Schemata/sarif-schema-2.1.0.json")

#: ``(tool name, {rule id: description}, findings)`` per analyzer.
Section = Tuple[str, Dict[str, str], Sequence[Violation]]


def _relative_uri(path: str) -> str:
    """Repo-relative, forward-slash URI for one finding's file."""
    candidate = Path(path)
    if candidate.is_absolute():
        try:
            candidate = candidate.relative_to(Path.cwd())
        except ValueError:
            pass
    return candidate.as_posix()


def _run(tool_name: str, rules_meta: Dict[str, str],
         violations: Sequence[Violation]) -> Dict:
    rule_ids = sorted(set(rules_meta)
                      | {violation.rule for violation in violations})
    rule_index = {rule_id: index
                  for index, rule_id in enumerate(rule_ids)}
    rules = [{
        "id": rule_id,
        "shortDescription": {
            "text": rules_meta.get(rule_id, rule_id)},
    } for rule_id in rule_ids]
    results = [{
        "ruleId": violation.rule,
        "ruleIndex": rule_index[violation.rule],
        "level": "warning",
        "message": {"text": violation.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": _relative_uri(violation.path),
                    "uriBaseId": "%SRCROOT%",
                },
                "region": {
                    "startLine": violation.line,
                    "startColumn": violation.col + 1,
                },
            },
        }],
    } for violation in violations]
    return {
        "tool": {
            "driver": {
                "name": tool_name,
                "rules": rules,
            },
        },
        "results": results,
    }


def sarif_log(sections: Iterable[Section]) -> Dict:
    """The SARIF log object: one run per ``(tool, rules, findings)``."""
    runs: List[Dict] = [_run(tool_name, rules_meta, list(violations))
                        for tool_name, rules_meta, violations
                        in sections]
    return {
        "$schema": _SCHEMA,
        "version": SARIF_VERSION,
        "runs": runs,
    }


def render_sarif(sections: Iterable[Section]) -> str:
    """Serialized SARIF log, stable key order, trailing-newline-free."""
    return json.dumps(sarif_log(sections), indent=2, sort_keys=True)
