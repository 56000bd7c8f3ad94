"""The simulation kernel: clock, event loop, and scheduling interface.

A :class:`Simulator` owns the virtual clock and the pending-event queue.
Components schedule callbacks with :meth:`Simulator.schedule` (relative
delay) or :meth:`Simulator.schedule_at` (absolute time), and the loop in
:meth:`Simulator.run` dispatches them in time order.

Design notes
------------
* Time never goes backwards; scheduling into the past raises
  :class:`~repro.errors.SimulationError` rather than silently clamping,
  because in this codebase a past-scheduled event always indicates a
  scheduler-arithmetic bug (e.g. a negative holding time, which the
  paper proves cannot occur).
* ``priority`` breaks ties among simultaneous events. Lower runs first.
  The network layer uses it to ensure, e.g., that a packet's arrival at
  a node is processed before the same node's transmitter looks for work
  at the identical instant.
* The kernel is single-threaded and reentrant-safe in the only way that
  matters for DES: callbacks may freely schedule and cancel other
  events, including at the current instant.
* :meth:`Simulator.run` is a *fused* dispatch loop: it peeks and pops
  the heap directly (one pop per event, cancelled entries walked once)
  with the heap and ``heappop`` bound to locals, and it recycles spent
  :class:`~repro.sim.events.Event` objects through the queue's free
  list so steady-state dispatch allocates nothing.  Recycling is gated
  on ``sys.getrefcount``: an event whose handle is still referenced
  anywhere outside the loop is simply left to the garbage collector,
  so a held handle can never be mutated into a different event.  The
  loop is behaviourally identical to ``while step(): ...`` — proven by
  the digest-equality tests in ``tests/sim/test_dispatch_digest.py``.
* The dispatch engine is *pluggable*: ``Simulator(backend=...)`` is a
  factory that resolves a backend name (argument >
  ``REPRO_KERNEL_BACKEND`` > ``"python"``) and builds the matching
  implementation class — this reference loop or the compiled C core
  (:mod:`repro.sim.backends`).  Every backend honours the contract in
  the :class:`Simulator` docstring and is held to bit-identical
  dispatch digests.  Subclasses other than :class:`Simulator` itself
  are never redirected, so test doubles and the perturbation kernels
  instantiate directly.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.sim.events import (FREE_LIST_MAX, USER_PRIORITY_MAX,
                              USER_PRIORITY_MIN, Event, EventQueue,
                              _recycled)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.verify.sanitizer import Sanitizer

_heappush = heapq.heappush

try:
    from sys import getrefcount as _refcount
except ImportError:  # pragma: no cover - non-CPython fallback
    def _refcount(obj: object, /) -> int:
        """No refcounts available: report a value that never recycles."""
        return -1

__all__ = ["Simulator"]

#: Default tie-break priority for ordinary events.
PRIORITY_NORMAL = 0

#: References to a just-dispatched event inside the fused loop when no
#: user code holds its handle: the loop's ``event`` local and
#: ``getrefcount``'s own argument (the popped heap entry tuple has
#: already been unpacked and freed by then).  Any extra reference means
#: the handle escaped and the event must not be reused.
_DISPATCH_REFS = 2

#: Tie-break priority of the run-horizon sentinel event: sorts after
#: every real event at the same instant, so events scheduled exactly at
#: ``until`` still run.  User priorities must stay below this.
_STOP_PRIORITY = USER_PRIORITY_MAX + 1

#: Tie-break priority of the *exclusive*-horizon sentinel
#: (``run(..., exclusive=True)``): sorts before every real event at the
#: same instant, so events scheduled exactly at ``until`` stay queued.
#: The space-parallel barrier-window protocol relies on this: a window
#: ``[T, T + w)`` is half-open, so a cross-shard message arriving at
#: exactly ``T + w`` is injected at the barrier *before* any local
#: event at ``T + w`` dispatches.  User priorities must stay above
#: this.
_WINDOW_PRIORITY = USER_PRIORITY_MIN - 1


class _Stop(Exception):
    """Raised by the run-horizon sentinel to end the fast loop."""


def _raise_stop() -> None:
    raise _Stop


class Simulator:
    """Discrete-event simulator: virtual clock plus event loop.

    This class is also the reference for every kernel backend
    (:mod:`repro.sim.backends`).  A backend subclasses it and must keep
    this contract exactly:

    * ``schedule``/``schedule_at`` return a live, cancellable
      :class:`~repro.sim.events.Event` handle and establish the
      ``(time, priority, seq)`` total order — insertion order breaks
      ties, bit-for-bit identically across backends (the digest
      goldens in ``tests/sim/test_dispatch_digest.py`` enforce this,
      parameterized over every backend);
    * a handle goes stale once its event is dispatched, popped or
      cleared: a later ``cancel()`` is a no-op, even after the event
      object has been recycled for a new event;
    * ``run`` drains events in that order and honours the inclusive
      and exclusive ``until`` horizons and the ``max_events`` valve
      exactly as the reference loop does, sentinel tie classes
      included.
    """

    __slots__ = ("_queue", "now", "_running", "_dispatched", "sanitizer")

    #: Canonical backend name of this implementation class.  The
    #: ``backend`` property reports it and the ``Simulator(...)``
    #: factory selects an implementation by it; backend subclasses
    #: override it (:mod:`repro.sim.backends`).
    backend_name = "python"

    def __new__(cls, *args: Any, backend: Optional[str] = None,
                **kwargs: Any) -> "Simulator":
        # Factory hook: a plain `Simulator(...)` call resolves the
        # backend name (argument > REPRO_KERNEL_BACKEND env > default)
        # and builds the matching implementation class.  Subclasses —
        # the backends themselves, TiebreakShuffledSimulator, test
        # doubles — are never redirected and construct directly.
        if cls is Simulator:
            from repro.sim import backends
            cls = backends.simulator_class(
                backends.resolve_backend(backend))
        instance: "Simulator" = object.__new__(cls)
        return instance

    def __init__(self, *, backend: Optional[str] = None) -> None:
        if backend is not None and backend != self.backend_name:
            # Reachable only by instantiating a backend class directly
            # with a conflicting name; the factory path always agrees.
            raise ConfigurationError(
                f"{type(self).__name__} implements the "
                f"{self.backend_name!r} kernel backend; it cannot be "
                f"instantiated as {backend!r}")
        self._queue = EventQueue()
        #: Current simulated time in seconds.  A plain attribute rather
        #: than a property: callbacks read the clock several times per
        #: event and a descriptor call on that path is measurable.
        #: Treat it as read-only — only the kernel advances it.
        self.now = 0.0
        self._running = False
        self._dispatched = 0
        #: Runtime invariant checker (``--sanitize``); ``None`` keeps
        #: the fused fast loops untouched — the sanitized loop is a
        #: separate branch selected once per ``run()`` call.
        self.sanitizer: Optional["Sanitizer"] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """Name of the kernel backend this simulator dispatches on."""
        return self.backend_name

    @property
    def events_dispatched(self) -> int:
        """Total number of events executed so far (for diagnostics)."""
        return self._dispatched

    @property
    def pending(self) -> int:
        """Number of live events still scheduled."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    # The bodies of schedule/schedule_at inline EventQueue.push (the
    # reference implementation): they are the second-hottest kernel path
    # after dispatch itself and the extra call costs ~10% of a
    # schedule+dispatch cycle.  Keep all three in sync.
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any, priority: int = PRIORITY_NORMAL) -> Event:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(
                f"negative delay {delay!r} scheduling {callback!r}")
        time = self.now + delay
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        queue._live += 1
        free = queue._free
        if free:
            event = free.pop()
            event.time = time
            event.priority = priority
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, priority, seq, callback, args)
            event._queue = queue
        _heappush(queue._heap, (time, priority, seq, event))
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any, priority: int = PRIORITY_NORMAL) -> Event:
        """Run ``callback(*args)`` at absolute virtual ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, clock already at {self.now!r}")
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        queue._live += 1
        free = queue._free
        if free:
            event = free.pop()
            event.time = time
            event.priority = priority
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, priority, seq, callback, args)
            event._queue = queue
        _heappush(queue._heap, (time, priority, seq, event))
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event without running it.

        The handle goes stale exactly as it would at dispatch, so a
        later ``cancel()`` is a no-op.  Returns ``None`` when nothing
        is pending.
        """
        return self._queue.pop()

    def step(self) -> bool:
        """Dispatch the single earliest event.

        Returns ``True`` if an event ran, ``False`` if the queue was
        empty.  The cold-path sibling of :meth:`run`: same dispatch
        semantics, no event recycling.
        """
        event = self.pop()
        if event is None:
            return False
        self.now = event.time
        self._dispatched += 1
        event.callback(*event.args)
        return True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None, *,
            exclusive: bool = False) -> float:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time; the clock is then
            advanced exactly to ``until`` (events at later times stay
            queued). ``None`` means run until the queue drains.
        max_events:
            Safety valve for tests: stop after dispatching this many
            events even if more are pending.
        exclusive:
            Treat ``until`` as a half-open horizon: dispatch only
            events strictly before ``until`` and leave events at
            exactly ``until`` queued (the clock still advances to
            ``until``).  This is the barrier-window mode of the
            space-parallel kernel (:mod:`repro.sim.parallel`): a shard
            runs ``[T, T + w)`` so that cross-shard messages arriving
            at exactly ``T + w`` can be injected at the barrier before
            any local event at that instant runs.  Default off — the
            plain inclusive semantics are byte-for-byte unchanged.

        Returns the clock value when the loop stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if exclusive and until is None:
            raise SimulationError(
                "run(exclusive=True) needs an explicit until horizon")
        self._running = True
        # Hot-loop locals: the heap list and free list keep their
        # identity for the queue's whole lifetime (clear() empties them
        # in place), so binding them here is safe even across callbacks
        # that call Simulator.reset().
        queue = self._queue
        heap = queue._heap
        free = queue._free
        heappop = heapq.heappop
        heappush = _heappush
        refcount = _refcount
        # Dispatch count kept in a local and written back once in the
        # ``finally``: ``events_dispatched`` is a post-run diagnostic
        # (nothing in the tree reads it from inside a callback) and the
        # attribute round-trip costs ~5% of a bare dispatch.
        dispatched = 0
        # Bound before ``try`` so the BaseException handler can always
        # read it, whichever branch ran.
        stop: Optional[Event] = None
        san = self.sanitizer
        try:
            if san is not None:
                # Sanitized loop: per-event bounds checks and a clock
                # monotonicity probe.  Deliberately a separate branch —
                # the fast loops below stay byte-for-byte untouched
                # when the sanitizer is off.
                limit = inf if until is None else until
                remaining = inf if max_events is None else max_events
                while heap and remaining > 0:
                    time, priority, seq, event = heappop(heap)
                    if event.cancelled:
                        if (refcount(event) == _DISPATCH_REFS
                                and len(free) < FREE_LIST_MAX):
                            event.callback = _recycled
                            event.args = ()
                            free.append(event)
                        continue
                    if time > limit or (exclusive and time == limit):
                        heappush(heap, (time, priority, seq, event))
                        break
                    if time < self.now:
                        san.on_clock_regression(self.now, time)
                    queue._live -= 1
                    remaining -= 1
                    self.now = time
                    dispatched += 1
                    callback = event.callback
                    args = event.args
                    event.cancelled = True
                    callback(*args)
                    if (refcount(event) == _DISPATCH_REFS
                            and len(free) < FREE_LIST_MAX):
                        event.callback = _recycled
                        event.args = ()
                        free.append(event)
                san.events_checked += dispatched
            elif max_events is None:
                # Fast loop: no per-event bounds checks at all.  The
                # ``until`` horizon is a sentinel event in the heap that
                # sorts after every real event at the same time (huge
                # priority) and whose callback raises the private
                # ``_Stop``; an empty heap surfaces as ``IndexError``
                # from ``heappop``.  Both cost nothing per event.
                if until is not None:
                    if (until <= self.now) if exclusive else \
                            (until < self.now):
                        return self.now
                    # The exclusive sentinel sorts *before* same-instant
                    # real events; the inclusive one *after* them.
                    sentinel = _WINDOW_PRIORITY if exclusive \
                        else _STOP_PRIORITY
                    seq = queue._seq
                    queue._seq = seq + 1
                    stop = Event(until, sentinel, seq, _raise_stop, ())
                    heappush(heap, (until, sentinel, seq, stop))
                while True:
                    try:  # repro: disable=exception-control-flow-in-hot-path -- the IndexError fires once per run() when the heap drains, not per event; a "while heap" truth test would cost more on every iteration
                        time, _p, _s, event = heappop(heap)
                    except IndexError:
                        break
                    if event.cancelled:
                        if (refcount(event) == _DISPATCH_REFS
                                and len(free) < FREE_LIST_MAX):
                            event.callback = _recycled
                            event.args = ()
                            free.append(event)
                        continue
                    queue._live -= 1
                    self.now = time
                    dispatched += 1
                    callback = event.callback
                    args = event.args
                    # The handle goes stale at dispatch: a later
                    # cancel() must be a no-op even if this object gets
                    # recycled.
                    event.cancelled = True
                    callback(*args)
                    if (refcount(event) == _DISPATCH_REFS
                            and len(free) < FREE_LIST_MAX):
                        event.callback = _recycled
                        event.args = ()
                        free.append(event)
            else:
                limit = inf if until is None else until
                remaining = max_events
                while heap and remaining > 0:
                    time, priority, seq, event = heappop(heap)
                    if event.cancelled:
                        if (refcount(event) == _DISPATCH_REFS
                                and len(free) < FREE_LIST_MAX):
                            event.callback = _recycled
                            event.args = ()
                            free.append(event)
                        continue
                    if time > limit or (exclusive and time == limit):
                        # Pop-then-undo beats peek-then-pop: the undo
                        # runs at most once per run() call, the peek
                        # would run once per event.
                        heappush(heap, (time, priority, seq, event))
                        break
                    queue._live -= 1
                    remaining -= 1
                    self.now = time
                    dispatched += 1
                    callback = event.callback
                    args = event.args
                    event.cancelled = True
                    callback(*args)
                    if (refcount(event) == _DISPATCH_REFS
                            and len(free) < FREE_LIST_MAX):
                        event.callback = _recycled
                        event.args = ()
                        free.append(event)
            if until is not None and self.now < until:
                self.now = until
        except _Stop:
            # The sentinel fired: undo its bookkeeping (it was never a
            # live event).  ``self.now`` already equals ``until``.
            queue._live += 1
            dispatched -= 1
        except BaseException:
            # A callback blew up with the sentinel still queued: defuse
            # it so a future run() cannot trip over a stale horizon.
            if stop is not None:
                stop.cancelled = True
            raise
        finally:
            self._dispatched += dispatched
            self._running = False
        return self.now

    def clear(self) -> None:
        """Drop every pending event, marking their handles stale.

        The clock and the dispatch counter keep their values; use
        :meth:`reset` to rewind those too.
        """
        self._queue.clear()

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero."""
        self.clear()
        self.now = 0.0
        self._dispatched = 0
