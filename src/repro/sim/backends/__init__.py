"""Pluggable kernel backends: selection, registry, and availability.

The dispatch engine behind :class:`repro.sim.kernel.Simulator` is
swappable.  Every backend is a :class:`~repro.sim.kernel.Simulator`
subclass held to the contract written down in that class's docstring
and must be *behaviourally invisible* — bit-identical dispatch digests
on the golden workloads and the fused-vs-naive hypothesis property
suite, both parameterized over every backend in CI.

Two backends ship:

``python``
    The reference fused loop in :mod:`repro.sim.kernel`, untouched.
``compiled``
    :class:`~repro.sim.backends.compiled.CompiledSimulator` — the
    dispatch loop as a hand-written CPython extension
    (``repro.sim._ckernel``).  Optional, like the ``[scale]`` extra:
    built on demand (``make compiled-backend``) and guarded with an
    actionable error when absent, mirroring :mod:`repro.optdeps`.

Selection: constructor argument beats the ``REPRO_KERNEL_BACKEND``
environment variable beats the default, and the CLI's
``--kernel-backend`` pins the environment variable so sweep worker
processes inherit the choice.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Tuple, Type

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator

__all__ = [
    "DEFAULT_BACKEND",
    "ENV_KERNEL_BACKEND",
    "KERNEL_BACKENDS",
    "available_backends",
    "compiled_available",
    "resolve_backend",
    "simulator_class",
]

#: Environment variable consulted when no explicit backend is given.
#: Set by the CLI's ``--kernel-backend`` so pool workers inherit it.
ENV_KERNEL_BACKEND = "REPRO_KERNEL_BACKEND"

#: Every selectable backend name, in documentation order.
KERNEL_BACKENDS: Tuple[str, ...] = ("python", "compiled")

#: The reference implementation wins when nothing is requested.
DEFAULT_BACKEND = "python"


def resolve_backend(requested: "str | None" = None) -> str:
    """Resolve a backend name: argument > env var > default.

    Raises :class:`~repro.errors.ConfigurationError` for unknown
    names, naming the valid choices.
    """
    name = requested
    if name is None:
        name = (os.environ.get(ENV_KERNEL_BACKEND, "").strip()
                or DEFAULT_BACKEND)
    if name not in KERNEL_BACKENDS:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; valid backends: "
            f"{', '.join(KERNEL_BACKENDS)}")
    return name


def simulator_class(name: str) -> Type["Simulator"]:
    """The :class:`Simulator` subclass implementing backend ``name``.

    Imports lazily: the reference kernel must stay importable without
    touching the optional backends (and vice versa).
    """
    if name == "python":
        from repro.sim.kernel import Simulator
        return Simulator
    if name == "compiled":
        from repro.sim.backends.compiled import CompiledSimulator
        return CompiledSimulator
    raise ConfigurationError(
        f"unknown kernel backend {name!r}; valid backends: "
        f"{', '.join(KERNEL_BACKENDS)}")


def compiled_available() -> bool:
    """Whether the optional C dispatch core is importable."""
    from repro.sim.backends.compiled import ckernel_available
    return ckernel_available()


def available_backends() -> Tuple[str, ...]:
    """The backends usable in this environment, in registry order.

    ``python`` is pure stdlib and always present; ``compiled``
    appears only when the extension is built.
    """
    if compiled_available():
        return KERNEL_BACKENDS
    return tuple(name for name in KERNEL_BACKENDS if name != "compiled")
