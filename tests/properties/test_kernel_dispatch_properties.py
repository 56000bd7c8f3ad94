"""Property tests for the fused dispatch loop and event recycling.

Two claims the kernel overhaul must uphold:

* any randomized schedule/cancel/reset workload dispatches in exactly
  the same order through the fused ``Simulator.run`` loop as through a
  straightforward reference loop (kept here, deliberately naive);
* recycling can never let a held :class:`Event` handle reach into
  somebody else's event — a stale handle's ``cancel()`` is a no-op and
  the live-event count stays exact no matter how handles are abused.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.backends import (KERNEL_BACKENDS, available_backends,
                                simulator_class)
from repro.sim.kernel import Simulator

# Every claim below holds per backend: the fused-vs-naive equality is
# the semantic half of the backend contract, and the recycling claims
# keep handle safety honest in the compiled loop too.
pytestmark = pytest.mark.parametrize("kernel_backend", KERNEL_BACKENDS)


def make_simulator(kernel_backend: str) -> Simulator:
    if kernel_backend not in available_backends():
        pytest.skip(f"kernel backend {kernel_backend!r} not built here")
    return simulator_class(kernel_backend)()


#: Small grid with repeats so same-instant ties are common.
DELAYS = [0.0, 0.001, 0.001, 0.002, 0.0035, 0.005, 0.01, 0.0, 0.0025]

#: Hard cap on events per generated workload (keeps runs fast and
#: guarantees termination even for spawn-happy scripts).
MAX_SPAWNS = 300


class RefHandle:
    """Cancellation flag for the reference loop (lazy skip)."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class RefEngine:
    """The obvious heap-based event loop: peek, skip cancelled, pop,
    dispatch.  No recycling, no fusion, no sentinel — the semantics the
    fused loop must reproduce bit for bit."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, int, RefHandle,
                               Callable[..., Any], Tuple[Any, ...]]] = []
        self._seq = 0

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any, priority: int = 0) -> RefHandle:
        assert delay >= 0
        return self._push(self.now + delay, priority, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any, priority: int = 0) -> RefHandle:
        assert time >= self.now
        return self._push(time, priority, callback, args)

    def _push(self, time: float, priority: int,
              callback: Callable[..., Any],
              args: Tuple[Any, ...]) -> RefHandle:
        handle = RefHandle()
        heapq.heappush(self._heap,
                       (time, priority, self._seq, handle, callback, args))
        self._seq += 1
        return handle

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        dispatched = 0
        while self._heap:
            time = self._heap[0][0]
            if self._heap[0][3].cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and time > until:
                break
            if max_events is not None and dispatched >= max_events:
                break
            entry = heapq.heappop(self._heap)
            self.now = time
            dispatched += 1
            entry[4](*entry[5])
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def reset(self) -> None:
        self._heap.clear()
        self.now = 0.0


def run_workload(engine, script, until: float, max_events: int):
    """Drive ``engine`` through a deterministic script of schedule /
    cancel / spawn decisions; return the (time, tag) dispatch log."""
    log: List[Tuple[float, str]] = []
    handles: List[Any] = []
    spawned = [0]

    def cb(tag: str, k: int) -> None:
        log.append((engine.now, tag))
        n = spawned[0]
        if k % 3 != 2 and n < MAX_SPAWNS:
            spawned[0] = n + 1
            child = engine.schedule(DELAYS[(k + n) % len(DELAYS)], cb,
                                    f"{tag}/{n}", (k * 5 + n) % 9,
                                    priority=(k + n) % 3 - 1)
            # Keep only some handles: dropped ones become recycling
            # fodder in the fused engine.
            if k % 2 == 0:
                handles.append(child)
        if k % 4 == 1 and handles:
            handles[(k * 7 + n) % len(handles)].cancel()

    for index, (delay_idx, priority, k) in enumerate(script):
        handles.append(engine.schedule(DELAYS[delay_idx], cb,
                                       f"root{index}", k,
                                       priority=priority))
        if index % 3 == 0:
            # Same-instant ties across roots: insertion order decides.
            engine.schedule_at(0.004, cb, f"tie{index}", k + 1)
    engine.run(until=until)
    engine.run(max_events=max_events)
    engine.run()

    # Second act after a reset: stale handles must be inert.
    engine.reset()
    for handle in handles:
        handle.cancel()
    for index, (delay_idx, priority, k) in enumerate(script[:5]):
        engine.schedule(DELAYS[delay_idx], cb, f"act2-{index}", k,
                        priority=priority)
    engine.run()
    log.append((engine.now, "end"))
    return log


@settings(max_examples=60, deadline=None)
@given(script=st.lists(
           st.tuples(st.integers(0, len(DELAYS) - 1),
                     st.integers(-2, 2),
                     st.integers(0, 9)),
           min_size=1, max_size=20),
       until_idx=st.integers(0, len(DELAYS) - 1),
       max_events=st.integers(1, 60))
def test_fused_loop_dispatches_identically_to_reference(
        kernel_backend, script, until_idx, max_events):
    until = DELAYS[until_idx] * 3 + 0.001
    fused = run_workload(make_simulator(kernel_backend), script, until,
                         max_events)
    reference = run_workload(RefEngine(), script, until, max_events)
    assert fused == reference


@settings(max_examples=40, deadline=None)
@given(script=st.lists(
           st.tuples(st.integers(0, len(DELAYS) - 1),
                     st.integers(-2, 2),
                     st.integers(0, 9)),
           min_size=1, max_size=20))
def test_live_count_survives_stale_handle_abuse(kernel_backend,
                                                   script):
    sim = make_simulator(kernel_backend)
    handles = [sim.schedule(DELAYS[d], lambda: None, priority=p)
               for d, p, _ in script]
    # Cancel a few, dispatch everything, then abuse every stale handle.
    for handle in handles[::3]:
        handle.cancel()
    sim.run()
    assert sim.pending == 0
    for _ in range(3):
        for handle in handles:
            handle.cancel()
    assert sim.pending == 0
    # The queue must still count correctly after the abuse.
    sim.schedule(0.5, lambda: None)
    assert sim.pending == 1
    sim.run()
    assert sim.pending == 0


def test_held_handle_is_never_recycled(kernel_backend):
    sim = make_simulator(kernel_backend)
    held = sim.schedule(0.1, lambda: None)
    sim.run()
    assert held.cancelled  # stale after dispatch
    # The kernel must not have parked the held event for reuse: a new
    # schedule gets a different object, so cancelling the old handle
    # can never touch the new event.
    fresh = sim.schedule(0.2, lambda: None)
    assert fresh is not held
    held.cancel()
    assert sim.pending == 1
    sim.run()


def test_discarded_handles_are_recycled_and_reused(kernel_backend):
    sim = make_simulator(kernel_backend)
    for _ in range(5):
        sim.schedule(0.1, lambda: None)  # handles discarded
    sim.run()
    free = sim._queue._free
    assert free, "discarded events should be parked for reuse"
    parked = free[-1]
    reused = sim.schedule(0.3, lambda: None)
    assert reused is parked
    # The recycled handle is a fresh, live event: cancel works once.
    reused.cancel()
    assert sim.pending == 0
