"""The guarded numpy import behind the optional ``[scale]`` extra."""

import pytest

from repro import optdeps
from repro.errors import SimulationError


def test_require_numpy_raises_actionable_error(monkeypatch):
    monkeypatch.setattr(optdeps, "np", None)
    assert not optdeps.numpy_available()
    with pytest.raises(SimulationError,
                       match=r"histogram export.*repro\[scale\]"):
        optdeps.require_numpy("histogram export")
