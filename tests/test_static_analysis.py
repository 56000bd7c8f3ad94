"""Tier-1 gate: the source tree passes its own static analysis.

Runs every registered rule of all four analyzers over ``src/repro``
(one :func:`~repro.analysis.front.run_suite` call shared by the four
gates) and fails on any unsuppressed finding. This is the enforcement
point for the determinism/unit discipline documented in
``docs/static_analysis.md``: a regression here means some new code
reads the wall clock, draws from ambient RNG state, compares
timestamps with ``==``, passes unitless literals, schedules events
without a tie-break, or adds a provable per-event cost.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.analysis.front import run_suite
from repro.analysis.lint import render_text

SRC_REPRO = Path(repro.__file__).resolve().parent


@pytest.fixture(scope="module")
def findings():
    return run_suite([SRC_REPRO])


def _assert_clean(violations, label: str, doc: str) -> None:
    assert not violations, (
        f"{label} violations in src/repro "
        "(fix them, or suppress with a justified '# repro: disable=' "
        f"comment — see {doc}):\n" + render_text(violations))


def test_src_tree_passes_static_analysis(findings):
    _assert_clean(findings["lint"], "static analysis (lint)",
                  "docs/static_analysis.md")


def test_src_tree_passes_whole_program_analysis(findings):
    _assert_clean(findings["verify"], "whole-program (verify)",
                  "docs/static_analysis.md")


def test_src_tree_passes_determinism_analysis(findings):
    _assert_clean(findings["det"], "determinism (det)",
                  "docs/determinism.md")


def test_src_tree_passes_hot_path_analysis(findings):
    _assert_clean(findings["hot"], "hot-path (hot)",
                  "docs/hot_path_analysis.md")
