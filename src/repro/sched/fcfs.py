"""First-come-first-served: the conventional discipline the paper's
introduction argues is insufficient for real-time traffic.

Kept as the simplest baseline: it provides no isolation, so a bursty
session inflates every other session's delay — the behaviour the
firewall experiments contrast Leave-in-Time against.  It keeps no
per-session state at all.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.net.packet import Packet
from repro.sched.base import Scheduler

__all__ = ["FCFS"]


class FCFS(Scheduler):
    """Serve packets in arrival order, regardless of session."""

    def __init__(self) -> None:
        super().__init__()
        self._queue: Deque[Packet] = deque()

    def on_arrival(self, packet: Packet, now: float) -> None:
        packet.eligible_time = now
        # FCFS assigns no deadline; reuse the field so lateness tracking
        # in the base class remains meaningful (lateness = sojourn).
        packet.deadline = now
        self._queue.append(packet)

    def next_packet(self, now: float) -> Optional[Packet]:
        if not self._queue:
            return None
        return self._queue.popleft()

    @property
    def backlog(self) -> int:
        return len(self._queue)
