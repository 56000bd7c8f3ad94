"""Guarded import of numpy, the optional ``[scale]`` extra.

The core simulator — kernel, network, schedulers, and every tier-1
experiment that matters for the paper's tables — is pure standard
library.  numpy is needed only by the analysis helpers that
post-process distributions (histograms, M/D/1 comparisons, delay-bound
CDFs), so pyproject ships it as the optional ``[scale]`` extra rather
than a hard dependency.  Modules that can work without it import the guarded
binding::

    from repro.optdeps import np

and call :func:`require_numpy` at the top of the functions that
genuinely need arrays, which turns a bare ``ImportError`` at import
time into a clear, actionable :class:`~repro.errors.SimulationError`
at use time — the rest of the module (and the CLI that imports it)
stays importable.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SimulationError

__all__ = ["np", "numpy_available", "require_numpy"]

try:  # pragma: no cover - exercised via tests that stub the import
    import numpy as np
except ImportError:  # pragma: no cover - numpy is present in CI
    np = None  # type: ignore[assignment]


def numpy_available() -> bool:
    """Whether the optional ``[scale]`` extra (numpy) is importable."""
    return np is not None


def require_numpy(feature: str) -> Any:
    """Return numpy, or raise a clear error naming ``feature``.

    Call at the top of any function that needs arrays; the message
    tells the user exactly what to install and (where one exists) the
    pure-Python alternative.
    """
    if np is None:
        raise SimulationError(
            f"{feature} requires numpy, which is not installed; "
            "install the optional extra (pip install 'repro[scale]')")
    return np
