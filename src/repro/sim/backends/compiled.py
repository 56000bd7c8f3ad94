"""The compiled kernel backend: the dispatch loop as a C extension.

:class:`CompiledSimulator` keeps scheduling, cancellation, and every
cold path in Python — only the hot dispatch loop moves into
:mod:`repro.sim._ckernel`, a hand-written CPython extension operating
on the exact same queue structures (the heap stays a Python list of
``(time, priority, seq, Event)`` tuples).  Callbacks therefore run
unmodified, ``schedule`` from inside a callback pushes into the heap
the C loop is draining, and the digest goldens plus the hypothesis
property suite hold bit-identically.

The extension is an *optional* build, packaged like the ``[scale]``
extra and guarded the same way :mod:`repro.optdeps` guards numpy: the
module imports fine without it, :func:`ckernel_available` reports the
truth, and :func:`require_ckernel` raises an actionable
:class:`~repro.errors.SimulationError` at use time.  Build it with::

    make compiled-backend
    # equivalently: REPRO_BUILD_CKERNEL=1 python setup.py build_ext \\
    #               --inplace

No compiler, no problem: select the ``python`` backend instead — the
pure-stdlib reference loop and the default (docs/performance.md has
the decision table).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import SimulationError
from repro.sim.kernel import Simulator

__all__ = [
    "BUILD_HINT",
    "CompiledSimulator",
    "ckernel_available",
    "require_ckernel",
]

#: How to produce the extension, quoted by the use-time error.
BUILD_HINT = ("make compiled-backend  (REPRO_BUILD_CKERNEL=1 "
              "python setup.py build_ext --inplace)")

try:  # pragma: no cover - exercised via tests that stub the import
    from repro.sim import _ckernel
except ImportError:  # pragma: no cover - absent unless built
    _ckernel = None  # type: ignore[assignment]


def ckernel_available() -> bool:
    """Whether the optional C dispatch core is importable."""
    return _ckernel is not None


def require_ckernel() -> Any:
    """Return the C core, or raise a clear error naming the fix."""
    if _ckernel is None:
        raise SimulationError(
            "the 'compiled' kernel backend requires the repro.sim."
            f"_ckernel extension, which is not built; run {BUILD_HINT} "
            "or select the 'python' backend (pure stdlib, the "
            "default) instead")
    return _ckernel


class CompiledSimulator(Simulator):
    """C-core dispatch engine; drop-in for :class:`Simulator`.

    Select with ``Simulator(backend="compiled")`` or
    ``REPRO_KERNEL_BACKEND=compiled``.  Construction fails with the
    build hint when the extension is absent — backend selection is the
    right place to find that out, not the first ``run()``.

    Holds the :class:`Simulator` contract: the C loop pops the same
    ``(time, priority, seq, Event)`` heap entries in the same total
    order, marks each handle stale at dispatch, recycles only events
    no caller still references, and stops at the inclusive or
    exclusive ``until`` horizon exactly where the reference loop does.
    """

    __slots__ = ()

    backend_name = "compiled"

    def __init__(self, *, backend: Optional[str] = None) -> None:
        super().__init__(backend=backend)
        require_ckernel()

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None, *,
            exclusive: bool = False) -> float:
        """Run the event loop; same contract as :meth:`Simulator.run`."""
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if exclusive and until is None:
            raise SimulationError(
                "run(exclusive=True) needs an explicit until horizon")
        if self.sanitizer is not None or max_events is not None:
            # Cold paths stay in Python: the sanitizer's per-event
            # probes and the max_events valve are test instrumentation,
            # not hot loops.
            return super().run(until, max_events, exclusive=exclusive)
        core = require_ckernel()
        self._running = True
        try:
            now: float = core.drain(self, self._queue, until, exclusive)
        finally:
            self._running = False
        return now
