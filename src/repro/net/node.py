"""Server nodes: one outgoing link plus a pluggable service discipline.

A :class:`ServerNode` implements the paper's store-and-forward timing
exactly:

* a packet *arrives* when its last bit arrives;
* transmitting a packet of length ``L`` occupies the link for ``L/C``;
* the packet's actual finishing transmission time (``F̂``) is recorded
  and handed to the scheduler (Leave-in-Time derives the downstream
  holding time from it);
* delivery to the next node (or sink) happens a propagation delay ``Γ``
  after transmission finishes.

The node also measures per-session buffer occupancy the way the paper's
Figures 12-13 do: sampled at the instant a packet's last bit arrives,
counting queued, held, *and in-transmission* bits of that session.

Buffer accounting keeps one :class:`_SessionBuffer` record per
session, resolved once on the arrival path; ``receive`` used to probe
four separate dicts per packet, which profiled as a top-three cost of
the forwarding benchmarks.  The dict attributes (``buffer_bits`` etc.)
remain as read-only views for reports and tests.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.session import Session
from repro.sim.events import Event
from repro.sim.kernel import PRIORITY_NORMAL, Simulator
from repro.sim.monitor import TimeSeries
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.verify.sanitizer import Sanitizer
    from repro.faults.injector import NodeFaultState
    from repro.net.network import Network
    from repro.sched.base import Scheduler

__all__ = ["ServerNode"]


class _SessionBuffer:
    """Per-session buffer accounting at one node, resolved once.

    One record bundles everything ``receive`` needs per packet:
    occupancy, peak, the optional finite limit, the optional
    arrival-sampled monitor series, and the drop count.
    """

    __slots__ = ("bits", "peak", "limit", "samples", "drops")

    def __init__(self) -> None:
        self.bits = 0.0
        self.peak = 0.0
        self.limit: Optional[float] = None
        self.samples: Optional[TimeSeries] = None
        self.drops = 0


class ServerNode:
    """One server: scheduler + outgoing link."""

    def __init__(self, name: str, link: Link, scheduler: "Scheduler",
                 sim: Simulator, tracer: Optional[Tracer] = None) -> None:
        self.name = name
        self.link = link
        self.scheduler = scheduler
        self.sim = sim
        self.tracer = tracer or Tracer(False)
        scheduler.bind(self, sim, self.tracer)
        self.network: Optional["Network"] = None
        #: Armed fault state, set by FaultInjector.install for nodes a
        #: plan references; None otherwise, so the fault-free data path
        #: pays exactly one ``is not None`` check per hook.
        self.faults: Optional["NodeFaultState"] = None
        #: Conservation-law checker (``--sanitize``), set by
        #: ``Network.add_node``; None costs one check per hook, exactly
        #: like ``faults``.
        self.sanitizer: Optional["Sanitizer"] = None

        self.transmitting: Optional[Packet] = None
        #: Per-session buffer records (occupancy, peak, limit, monitor,
        #: drops) — one dict probe per packet instead of four.
        self._buffers: Dict[str, _SessionBuffer] = {}

        self.packets_served = 0
        self.bits_served = 0.0
        #: Link-busy seconds, accrued when a transmission *completes*
        #: (see :meth:`utilization` for the in-flight pro-rating).
        self.busy_time = 0.0
        self._tx_started_at = 0.0
        self._tx_time = 0.0
        #: Handle of the pending completion event, kept so a
        #: crash-restart can abort the in-flight transmission
        #: (:meth:`abort_transmission`) instead of letting the packet
        #: ride out the crash.
        self._tx_event: Optional[Event] = None

    # ------------------------------------------------------------------
    # Session registration
    # ------------------------------------------------------------------
    def register_session(self, session: Session) -> None:
        """Prepare per-session state and inform the scheduler."""
        buf = self._buffers.get(session.id)
        if buf is None:
            buf = self._buffers[session.id] = _SessionBuffer()
        if session.monitor_buffer and buf.samples is None:
            buf.samples = TimeSeries(f"{self.name}.{session.id}.buffer")
        self.scheduler.register_session(session)

    def forget_session(self, session_id: str) -> None:
        """Drop this node's buffer record for a fully drained session."""
        self._buffers.pop(session_id, None)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def set_buffer_limit(self, session_id: str, bits: float) -> None:
        """Enforce a finite per-session buffer at this node."""
        if bits <= 0:
            raise SimulationError(
                f"buffer limit must be positive, got {bits}")
        buf = self._buffers.get(session_id)
        if buf is None:
            buf = self._buffers[session_id] = _SessionBuffer()
        buf.limit = float(bits)

    def receive(self, packet: Packet) -> None:
        """A packet's last bit arrived at this node."""
        now = self.sim.now
        packet.arrival_time = now
        session_id = packet.session.id

        buf = self._buffers.get(session_id)
        if buf is None:
            # Unregistered sessions can still deliver here while a
            # removed session drains; account for them the same way.
            buf = self._buffers[session_id] = _SessionBuffer()
        occupancy = buf.bits + packet.length
        limit = buf.limit
        if limit is not None and occupancy > limit + 1e-9:
            buf.drops += 1
            self._drop_on_arrival(packet, session_id, now)
            return
        buf.bits = occupancy
        if occupancy > buf.peak:
            buf.peak = occupancy
        samples = buf.samples
        if samples is not None:
            samples.record(now, occupancy)

        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(now, "arrival", node=self.name,
                        session=session_id, packet=packet.seq)
        self.scheduler.on_arrival(packet, now)
        san = self.sanitizer
        if san is not None:
            san.on_receive(self, packet)
        self._try_start()

    def _drop_on_arrival(self, packet: Packet, session_id: str,
                         now: float) -> None:
        """Shared tail of a finite-buffer drop."""
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(now, "drop", node=self.name,
                        session=session_id, packet=packet.seq)
        san = self.sanitizer
        if san is not None:
            san.on_buffer_drop(self, packet)
        if self.network is not None:
            self.network.packet_dropped(packet)

    def wakeup(self) -> None:
        """A held packet became eligible; look for work."""
        self._try_start()

    def _try_start(self) -> None:
        if self.transmitting is not None:
            return
        faults = self.faults
        if faults is not None and faults.blocked:
            # Link down or node paused: packets stay queued (and held
            # packets keep maturing); recovery calls wakeup().
            return
        sim = self.sim
        now = sim.now
        packet = self.scheduler.next_packet(now)
        if packet is None:
            return
        self.transmitting = packet
        transmission = self.link.transmission_time(packet.length)
        # busy_time accrues at completion; remember the start so
        # utilization() can pro-rate a transmission still in flight.
        self._tx_started_at = now
        self._tx_time = transmission
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(now, "tx_start", node=self.name,
                        session=packet.session.id, packet=packet.seq,
                        deadline=packet.deadline)
        # Tie-break: NORMAL, so a completion coinciding with an arrival
        # resolves by insertion order — the arrival was scheduled first
        # and is processed first, which is the store-and-forward order
        # the buffer-occupancy sampling assumes.
        self._tx_event = sim.schedule(
            transmission, self._finish_transmission, packet,
            priority=PRIORITY_NORMAL)

    def _finish_transmission(self, packet: Packet) -> None:
        sim = self.sim
        now = sim.now
        if self.transmitting is not packet:
            # Unreachable by construction: abort_transmission cancels
            # the completion event before clearing ``transmitting``, so
            # a completion can never fire against stale tx bookkeeping.
            # Kept as a fail-loud guard for future scheduling bugs.
            raise SimulationError(
                f"node {self.name}: transmission completion for a packet "
                f"that is not on the link")
        packet.finish_time = now
        self.scheduler.on_transmit_complete(packet, now)

        session_id = packet.session.id
        buf = self._buffers.get(session_id)
        if buf is not None:
            buf.bits -= packet.length
        self.packets_served += 1
        self.bits_served += packet.length
        self.busy_time += self._tx_time
        self.transmitting = None
        self._tx_event = None

        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(now, "tx_end", node=self.name,
                        session=session_id, packet=packet.seq)
        if self.network is None:
            raise SimulationError(
                f"node {self.name} is not attached to a network")
        faults = self.faults
        if faults is not None:
            verdict = faults.transmit_verdict(packet)
            if verdict is not None:
                if verdict == "corrupt":
                    # Corrupted packets still occupy the link and the
                    # downstream propagation delay; the next hop
                    # discards them on arrival (Network.deliver).
                    faults.mark_corrupted(packet)
                else:
                    self.fault_drop(packet, "loss",
                                    release_buffer=False)
                    self._try_start()
                    return
        # Tie-break: NORMAL. With zero propagation the delivery lands at
        # this same instant; insertion order then runs it after this
        # completion handler's _try_start below, i.e. the downstream
        # arrival never preempts this node's own dequeue decision.
        #
        # Sharded runs intercept here — *before* the propagation delay
        # is scheduled — because Γ is the shard lookahead: the envelope
        # must leave this shard stamped with arrival ``now + Γ``, not
        # after the delay has already been consumed on this clock.
        network = self.network
        shard = network.shard
        if shard is None or not shard.intercept(self, packet):
            sim.schedule(self.link.propagation, network.deliver,
                         packet, priority=PRIORITY_NORMAL)
        san = self.sanitizer
        if san is not None:
            san.on_forward(self, packet)
        self._try_start()

    def abort_transmission(self, reason: str) -> None:
        """Abort the in-flight transmission, if any, for fault ``reason``.

        Called by a crash-restart: the packet on the link is lost, its
        pending completion event is cancelled, and the tx bookkeeping
        (``transmitting``/``_tx_started_at``/``_tx_time``) is reset so
        :meth:`utilization` never pro-rates a transmission that will
        never complete.  Busy time accrues only for the elapsed portion
        — the link really was busy up to the crash.
        """
        packet = self.transmitting
        if packet is None:
            return
        event = self._tx_event
        if event is not None:
            event.cancel()
        now = self.sim.now
        elapsed = now - self._tx_started_at
        if elapsed > 0.0:
            self.busy_time += (elapsed if elapsed < self._tx_time
                               else self._tx_time)
        self.transmitting = None
        self._tx_event = None
        self._tx_started_at = now
        self._tx_time = 0.0
        # The aborted packet's bits are still in the occupancy
        # accounting (they leave at completion), so release them.
        self.fault_drop(packet, reason, release_buffer=True)

    def fault_drop(self, packet: Packet, reason: str, *,
                   release_buffer: bool) -> None:
        """Discard ``packet`` for a fault ``reason`` at this node.

        ``release_buffer`` is True for packets dropped while still
        queued (flush, expired-on-recovery) so their bits leave the
        occupancy accounting; transmission-side drops (loss, corrupt)
        already released their bits at completion.  Every fault drop
        lands in the same per-session ``drops`` counter the finite-
        buffer path uses, which keeps ``Network._in_flight`` — and with
        it the drain-then-forget machinery — exact under faults.
        """
        session_id = packet.session.id
        san = self.sanitizer
        if san is not None:
            san.on_fault_drop(self, packet, reason)
        buf = self._buffers.get(session_id)
        if buf is not None:
            if release_buffer:
                buf.bits -= packet.length
            buf.drops += 1
        state = self.faults
        if state is not None:
            state.count_drop(reason, session_id)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, "fault_drop", node=self.name,
                        session=session_id, packet=packet.seq,
                        reason=reason)
        if self.network is not None:
            self.network.packet_dropped(packet)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def buffer_bits(self) -> Dict[str, float]:
        """Bits of each session currently at this node (read-only view)."""
        return {sid: buf.bits for sid, buf in self._buffers.items()}

    @property
    def buffer_peak(self) -> Dict[str, float]:
        """Peak per-session occupancy (read-only view)."""
        return {sid: buf.peak for sid, buf in self._buffers.items()}

    @property
    def buffer_samples(self) -> Dict[str, TimeSeries]:
        """Arrival-sampled occupancy series for monitored sessions."""
        return {sid: buf.samples
                for sid, buf in self._buffers.items()
                if buf.samples is not None}

    @property
    def buffer_limits(self) -> Dict[str, float]:
        """Configured finite buffer limits in bits (read-only view)."""
        return {sid: buf.limit for sid, buf in self._buffers.items()
                if buf.limit is not None}

    @property
    def drops(self) -> Dict[str, int]:
        """Dropped-packet counts for sessions that dropped (read-only)."""
        return {sid: buf.drops for sid, buf in self._buffers.items()
                if buf.drops > 0}

    def drop_count(self, session_id: str) -> int:
        """Packets of ``session_id`` dropped at this node."""
        buf = self._buffers.get(session_id)
        return buf.drops if buf is not None else 0

    def utilization(self, now: Optional[float] = None) -> float:
        """Fraction of time the link has been busy since time zero.

        ``busy_time`` accrues when a transmission completes; a
        transmission still on the link contributes only its elapsed
        fraction, so stopping a run mid-transmission no longer
        overstates utilization (it used to be charged in full at
        ``tx_start``).
        """
        horizon = self.sim.now if now is None else now
        if horizon <= 0:
            return 0.0
        busy = self.busy_time
        if self.transmitting is not None:
            elapsed = horizon - self._tx_started_at
            if elapsed > 0:
                busy += elapsed if elapsed < self._tx_time else self._tx_time
        return busy / horizon

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ServerNode {self.name} {self.link!r}>"
