"""Discrete-event simulation kernel.

This subpackage is a self-contained, dependency-free discrete-event
simulator in the classic event-scheduling style, built because the
paper's evaluation is entirely simulation-based and no simulation
framework is available offline.

The public surface:

* :class:`~repro.sim.kernel.Simulator` — the event loop and clock.
* :class:`~repro.sim.events.Event` — a scheduled callback, cancellable.
* :class:`~repro.sim.process.Process` — generator-based processes that
  ``yield`` delays (used by traffic sources).
* :class:`~repro.sim.rng.RandomStreams` — reproducible, named random
  substreams so each traffic source gets an independent stream.
* Monitors in :mod:`repro.sim.monitor` — tallies, time-weighted
  statistics, and time-series recorders used by the measurement layer.
* :func:`~repro.sim.collector.collector_paused` — keeps CPython's
  cyclic garbage collector out of a run.
"""

from repro.sim.collector import collector_paused
from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Simulator
from repro.sim.monitor import Counter, Tally, TimeSeries, TimeWeighted
from repro.sim.process import Process
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "Process",
    "RandomStreams",
    "Counter",
    "Tally",
    "TimeSeries",
    "TimeWeighted",
    "Tracer",
    "TraceRecord",
    "collector_paused",
]
