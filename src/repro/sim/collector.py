"""Keep CPython's cyclic garbage collector out of a simulation run.

A large scenario holds millions of long-lived, GC-tracked objects:
sessions, sinks, per-node state, sources and their generator
processes.  None of them is garbage, yet every gen-2 collection
rescans them all, and starting the sources of a 10^5-session network
allocates enough new tracked objects to trigger several such
collections.  The simulator's object graph leaves no cyclic garbage
behind (``tests/sim/test_collector_pause.py`` checks this across the
feature set), so reference counting alone frees everything a run
discards and the collector can be paused for the whole run.

:func:`collector_paused` is the one place that does it.
:meth:`repro.net.network.Network.run` runs inside it; so does the
session build of the heavy-traffic experiment.  The caller's collector
state is restored on every exit path, and a collector the caller had
already disabled stays disabled.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["collector_paused"]


@contextmanager
def collector_paused() -> Iterator[None]:
    """Disable the cyclic collector for the ``with`` body, then restore it.

    Nests freely: an inner pause finds the collector disabled and
    leaves it so.  Reference counting is unaffected; only the cyclic
    collector's periodic scans stop.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
