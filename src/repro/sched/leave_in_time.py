"""The Leave-in-Time service discipline (the paper's core contribution).

Final-version algorithm (paper §2):

1. Each arriving packet gets an **eligibility time**

   * ``E = t``                       without delay-jitter control (eq. 6)
   * ``E = t + A``                   with delay-jitter control     (eq. 7)

   where the holding time ``A`` was computed by the *upstream* node at
   transmission completion and carried in the packet header (eq. 8-9):

   * ``A = 0``                                            at node 1
   * ``A = F' + L_MAX/C' − F̂' + d'_max − d'_i``           at node n > 1

   (primes denote upstream-node quantities).

2. Each packet gets a **transmission deadline** through the coupled
   recursions (eq. 10-11):

   * ``F_i = max(E_i, K_{i-1}) + d_i``
   * ``K_i = max(E_i, K_{i-1}) + L_i / r_s``,   ``K_0 = t_1``

   ``d_i`` comes from the session's per-node
   :class:`~repro.sched.policy.DelayPolicy` (assigned by admission
   control); the default ``d_i = L_i/r_s`` makes the discipline
   identical to VirtualClock.

3. Eligible packets from all sessions are served in increasing deadline
   order (ties FIFO).

The scheduler tracks its own saturation invariant: under correct
admission control, ``F̂ < F + L_MAX/C`` for every packet, i.e. the
observed lateness stays below one maximum packet transmission time.

Per-session state (``k_prev``, the resolved policy, the
initialization flag and the regulator holds) lives in one
:class:`_SessionState` object per session.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.net.packet import Packet
from repro.net.session import Session
from repro.sched.base import Scheduler
from repro.sched.calendar_queue import (DeadlineQueue, HeapDeadlineQueue,
                                        drain_expired)
from repro.sched.policy import DelayPolicy, virtual_clock_policy
from repro.sim.events import Event
from repro.sim.kernel import PRIORITY_NORMAL

__all__ = ["LeaveInTime"]

#: Tolerance for floating-point noise when validating non-negative
#: holding times (the paper proves A >= 0 exactly).
_HOLD_EPSILON = 1e-9


class _SessionState:
    """Per-session, per-node scheduler state."""

    __slots__ = ("session", "policy", "k_prev", "initialized", "pending")

    def __init__(self, session: Session) -> None:
        self.session = session
        self.policy: Optional[DelayPolicy] = None
        self.k_prev = 0.0
        self.initialized = False
        #: Packets inside this session's delay regulator: seq ->
        #: (release event, packet). Teardown flushes these.  None until
        #: the first hold: only jitter-controlled sessions are ever
        #: held, and every node keeps one state per registered session.
        self.pending: Optional[Dict[int, Tuple[Event, Packet]]] = None

    def resolve_policy(self, node_name: str) -> DelayPolicy:
        """Fetch the admission-assigned policy, defaulting to VirtualClock.

        Resolution is deferred to the first packet so admission control
        may run at any point before traffic starts.
        """
        if self.policy is None:
            session = self.session
            assigned = session.policy_for(node_name)
            if assigned is None:
                assigned = virtual_clock_policy(
                    session.rate, session.l_max, session.l_min)
            self.policy = assigned
        return self.policy


class LeaveInTime(Scheduler):
    """Leave-in-Time scheduler for one server node.

    Parameters
    ----------
    queue:
        The deadline queue implementation; defaults to the exact heap.
        Pass an :class:`~repro.sched.calendar_queue.ApproximateDeadlineQueue`
        to reproduce the paper's O(1) approximate variant.
    """

    def __init__(self, queue: Optional[DeadlineQueue] = None) -> None:
        super().__init__()
        self._eligible: DeadlineQueue = queue or HeapDeadlineQueue()
        self._sessions: Dict[str, _SessionState] = {}
        self._held = 0

    # ------------------------------------------------------------------
    # Scheduler contract
    # ------------------------------------------------------------------
    def register_session(self, session: Session) -> None:
        self._sessions.setdefault(session.id, _SessionState(session))

    def on_arrival(self, packet: Packet, now: float) -> None:
        session = packet.session
        node = self.node
        state = self._sessions.get(session.id)
        if state is None:
            state = _SessionState(session)
            self._sessions[session.id] = state
        policy = state.resolve_policy(node.name)

        # Eligibility time (eq. 6-8): the holding time in the header is
        # zero at the first node and for sessions without jitter control.
        if session.jitter_control and packet.hop_index > 0:
            holding = packet.holding_time
            if holding < -_HOLD_EPSILON:
                raise SimulationError(
                    f"negative holding time {holding} for "
                    f"{session.id}#{packet.seq} at {self.node.name}")
            eligible_at = now + max(0.0, holding)
        else:
            eligible_at = now
        packet.eligible_time = eligible_at

        # Deadline recursions (eq. 10-11) with K_0 = t_1.
        if not state.initialized:
            state.k_prev = now
            state.initialized = True
        base = eligible_at if eligible_at > state.k_prev \
            else state.k_prev
        packet.deadline = base + policy.d_of(packet.length)
        state.k_prev = base + packet.length / session.rate
        k_next = state.k_prev

        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(now, "deadline", node=node.name,
                        session=session.id, packet=packet.seq,
                        eligible=eligible_at, deadline=packet.deadline,
                        k=k_next)
        san = self.sanitizer
        if san is not None:
            san.on_lit_labels(node.name, session.id,
                              packet.deadline, k_next, now)

        if eligible_at <= now:
            self._eligible.push(packet)
        else:
            self._held += 1
            # Tie-break: NORMAL, so a release coinciding with the node
            # transmitter's wake (or a completion) resolves by insertion
            # order — the hold was scheduled at arrival, before any
            # same-instant completion, so the release runs first and the
            # transmitter sees the packet. Pinned explicitly because the
            # order is load-bearing for deadline ties.
            event = self.sim.schedule_at(eligible_at, self._release,
                                         packet, priority=PRIORITY_NORMAL)
            pending = state.pending
            if pending is None:
                pending = state.pending = {}
            pending[packet.seq] = (event, packet)

    def _release(self, packet: Packet) -> None:
        """A delay regulator hold expired; queue the packet for service."""
        state = self._sessions.get(packet.session.id)
        if state is not None:
            state.pending.pop(packet.seq, None)
        self._held -= 1
        self._eligible.push(packet)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, "eligible", node=self.node.name,
                        session=packet.session.id, packet=packet.seq)
        self._wake_node()

    def next_packet(self, now: float) -> Optional[Packet]:
        packet = self._eligible.pop()
        san = self.sanitizer
        if san is not None and packet is not None:
            san.on_lit_serve(self.node.name, packet, now)
        return packet

    def on_transmit_complete(self, packet: Packet, now: float) -> None:
        super().on_transmit_complete(packet, now)
        session = packet.session
        if session.is_last_hop(packet.hop_index):
            packet.holding_time = 0.0
            return
        if not session.jitter_control:
            packet.holding_time = 0.0
            return
        # Holding time for the next node (eq. 9). All quantities are
        # this node's: F (deadline), F̂ (actual finish = now), d_max and
        # d_i from the session's policy here, L_MAX network-wide, C of
        # this node's outgoing link.
        node = self.node
        l_max_network = node.network.l_max
        state = self._sessions.get(session.id)
        if state is not None:
            policy = state.resolve_policy(node.name)
        else:
            # Session torn down while this packet was in flight:
            # relabel with the session's own assignment (VirtualClock
            # default) so draining packets still carry a consistent
            # downstream holding time instead of raising KeyError.
            policy = session.policy_for(node.name) \
                or virtual_clock_policy(session.rate, session.l_max,
                                        session.l_min)
        holding = (packet.deadline + l_max_network / self.capacity - now
                   + policy.d_max - policy.d_of(packet.length))
        if holding < -_HOLD_EPSILON:
            raise SimulationError(
                f"holding-time computation went negative ({holding}) for "
                f"{session.id}#{packet.seq} at {node.name}; "
                "this indicates scheduler saturation")
        packet.holding_time = max(0.0, holding)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backlog(self) -> int:
        return len(self._eligible) + self._held

    @property
    def held(self) -> int:
        """Packets currently inside delay regulators."""
        return self._held

    def forget_session(self, session_id: str) -> None:
        """Drop per-session state, flushing any regulator holds.

        Packets still sitting in the session's delay regulator are
        released immediately (their hold events are cancelled and they
        join the eligible queue now) so teardown can never strand a
        packet or leak the ``_held`` counter.  Packets already eligible
        or in transmission drain normally:
        :meth:`on_transmit_complete` relabels them with the session's
        own policy when the state is gone.  Prefer tearing sessions
        down through :meth:`repro.net.network.Network.remove_session`,
        which defers this call until the session has fully drained.
        """
        san = self.sanitizer
        if san is not None:
            # A re-admitted session restarts its K/F recursion from the
            # current clock; drop the stale monotonicity baseline.
            san.on_lit_forget(self.node.name, session_id)
        state = self._sessions.pop(session_id, None)
        if state is None or not state.pending:
            return
        tracer = self.tracer
        eligible = self._eligible
        pending = state.pending
        for event, packet in pending.values():  # repro: disable=nondeterministic-iteration -- pending is keyed by monotonically increasing seq and dicts preserve insertion order, so this iteration is deterministic
            event.cancel()
            self._held -= 1
            eligible.push(packet)
            if tracer.enabled:
                tracer.emit(self.sim.now, "flush", node=self.node.name,
                            session=session_id, packet=packet.seq)
        pending.clear()
        self._wake_node()

    def session_state(self, session_id: str) -> _SessionState:
        """Expose per-session state for tests and diagnostics."""
        return self._sessions[session_id]

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------
    def flush(self, now: float) -> List[Packet]:
        """Node restart: empty the eligible queue *and* the regulators.

        Unlike :meth:`forget_session`, per-session deadline state
        (``k_prev``, resolved policy) survives — the session is still
        admitted; only its buffered packets are lost.  Hold events are
        cancelled through the same ``pending`` map the drain-then-forget
        machinery uses, so ``_held`` can never leak.
        """
        flushed: List[Packet] = []
        for state in self._sessions.values():
            pending = state.pending
            if not pending:
                continue
            for event, packet in pending.values():
                event.cancel()
                self._held -= 1
                flushed.append(packet)
            pending.clear()
        while True:
            packet = self._eligible.pop()
            if packet is None:
                break
            flushed.append(packet)
        return flushed

    def drop_expired(self, now: float) -> List[Packet]:
        """Link recovery: discard eligible packets whose deadline passed.

        Held packets are untouched — their eligibility (and therefore
        deadline) lies at or beyond their release instant, so they
        cannot have expired yet.
        """
        return drain_expired(self._eligible, now)
