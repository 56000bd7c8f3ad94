"""Delay-EDD and Jitter-EDD (Ferrari/Verma; Verma/Zhang/Ferrari).

Earliest-due-date disciplines: each packet receives a deadline equal to
its (eligibility time + the session's local delay bound ``d_s``), and
packets are served in increasing deadline order.

* **Delay-EDD** is work-conserving: eligibility = arrival.
* **Jitter-EDD** adds a delay regulator: the upstream node stamps the
  packet with how far *ahead of its local deadline* it finished
  (``A = max(0, F' − F̂')``), and the downstream regulator holds the
  packet for that long — reconstructing the traffic pattern and
  cancelling jitter accumulated upstream. Leave-in-Time's regulators
  (paper eq. 9) are this idea adapted to rate-coupled deadlines.

Unlike Leave-in-Time, the local delay bound is *not* coupled to the
reserved rate; admission requires a schedulability test instead. We
implement the classic single-busy-period test: with sessions sorted by
local bound, every prefix must satisfy ``Σ L_max/C ≤ d_j`` — see
:func:`edd_schedulable`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.net.session import Session
from repro.sched.base import Scheduler
from repro.sched.calendar_queue import (DeadlineQueue, HeapDeadlineQueue,
                                        drain_expired)
from repro.sim.kernel import PRIORITY_NORMAL

__all__ = ["DelayEDD", "JitterEDD", "edd_schedulable"]


def edd_schedulable(offered: Sequence[Tuple[float, float]],
                    capacity: float) -> bool:
    """Single-busy-period EDD schedulability test.

    ``offered`` is a sequence of ``(d_local, l_max)`` pairs, one per
    session at this node. The test requires, for sessions sorted by
    local delay bound, that the total transmission time of every prefix
    fits within the prefix's largest bound:

        Σ_{k: d_k ≤ d_j} L_max,k / C  ≤  d_j   for every j.

    This is the deterministic worst case of all sessions' packets
    arriving simultaneously; it is sufficient (not necessary) and
    mirrors the role the paper assigns to EDD's "schedulability test at
    connection establishment time".
    """
    if capacity <= 0:
        raise ConfigurationError(f"capacity must be positive, got {capacity}")
    cumulative = 0.0
    for d_local, l_max in sorted(offered):
        cumulative += l_max / capacity
        if cumulative > d_local + 1e-12:
            return False
    return True


class DelayEDD(Scheduler):
    """Work-conserving earliest-due-date scheduling.

    Parameters
    ----------
    local_delays:
        Per-session local delay bound ``d_s`` in seconds, keyed by
        session id. A session not listed defaults to ``l_max / rate``
        (its packet service time at the reserved rate).
    """

    def __init__(self, local_delays: Optional[Dict[str, float]] = None,
                 queue: Optional[DeadlineQueue] = None) -> None:
        super().__init__()
        self._eligible: DeadlineQueue = queue or HeapDeadlineQueue()
        #: Explicitly configured bounds (constructor argument), plus
        #: the per-session defaults cached on first use;
        #: :meth:`forget_session` drops both.
        self.local_delays: Dict[str, float] = dict(local_delays or {})

    def local_delay(self, session: Session) -> float:
        bound = self.local_delays.get(session.id)
        if bound is None:
            bound = session.l_max / session.rate
            self.local_delays[session.id] = bound
        return bound

    def _eligibility(self, packet: Packet, now: float) -> float:
        """Delay-EDD: packets are eligible on arrival."""
        return now

    def on_arrival(self, packet: Packet, now: float) -> None:
        eligible_at = self._eligibility(packet, now)
        packet.eligible_time = eligible_at
        packet.deadline = eligible_at + self.local_delay(packet.session)
        if eligible_at <= now:
            self._eligible.push(packet)
        else:
            # Tie-break: NORMAL — release-vs-wake order at the same
            # instant is pinned to insertion order, as in the net layer.
            self.sim.schedule_at(eligible_at, self._release, packet,
                                 priority=PRIORITY_NORMAL)

    def _release(self, packet: Packet) -> None:
        self._eligible.push(packet)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, "eligible", node=self.node.name,
                        session=packet.session.id, packet=packet.seq)
        self._wake_node()

    def next_packet(self, now: float) -> Optional[Packet]:
        return self._eligible.pop()

    def forget_session(self, session_id: str) -> None:
        self.local_delays.pop(session_id, None)

    def on_transmit_complete(self, packet: Packet, now: float) -> None:
        super().on_transmit_complete(packet, now)
        packet.holding_time = 0.0

    def drop_expired(self, now: float) -> List[Packet]:
        """Link recovery: discard eligible packets past their due date."""
        return drain_expired(self._eligible, now)

    @property
    def backlog(self) -> int:
        return len(self._eligible)


class JitterEDD(DelayEDD):
    """Delay-EDD plus per-hop delay regulators (jitter control).

    The ahead-of-deadline amount computed at this node is carried to
    the next node in the packet header, exactly as in Leave-in-Time —
    the field is :attr:`repro.net.packet.Packet.holding_time`.
    """

    def _eligibility(self, packet: Packet, now: float) -> float:
        if packet.hop_index == 0:
            return now
        return now + max(0.0, packet.holding_time)

    def on_transmit_complete(self, packet: Packet, now: float) -> None:
        self.lateness.observe(now - packet.deadline)
        if packet.session.is_last_hop(packet.hop_index):
            packet.holding_time = 0.0
            return
        packet.holding_time = max(0.0, packet.deadline - now)
