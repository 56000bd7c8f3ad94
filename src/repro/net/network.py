"""Network assembly: nodes, sessions, sources, sinks, and delivery.

A :class:`Network` wires :class:`~repro.net.node.ServerNode` objects
together implicitly through session routes (the paper's model is
connection-oriented: packets follow their session's fixed node list, so
no routing table is needed). It owns the simulator, the random streams,
and the per-session sinks, and exposes :meth:`inject` for traffic
sources and :meth:`run` for experiments.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import ConfigurationError, SimulationError
from repro.net.link import Link
from repro.net.node import ServerNode
from repro.net.packet import Packet
from repro.net.session import Session
from repro.net.sink import Sink
from repro.sim.collector import collector_paused
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.verify.sanitizer import Sanitizer
    from repro.faults.injector import FaultInjector
    from repro.net.session_table import SessionTable
    from repro.sim.parallel import ShardContext

__all__ = ["Network", "resolve_state_backend"]

#: Recognised values for ``Network(state_backend=...)`` and the
#: ``REPRO_STATE_BACKEND`` environment variable.
_BACKENDS = ("objects", "soa")


def resolve_state_backend(requested: Optional[str] = None) -> str:
    """Resolve a state backend name: argument > env var > ``"objects"``.

    Raises :class:`~repro.errors.ConfigurationError` for unknown names.
    """
    name = requested
    if name is None:
        name = os.environ.get("REPRO_STATE_BACKEND", "").strip() \
            or "objects"
    if name not in _BACKENDS:
        raise ConfigurationError(
            f"unknown state_backend {name!r}; "
            f"expected one of {_BACKENDS}")
    return name


class Network:
    """A packet network with pluggable per-node service disciplines.

    ``state_backend`` selects how per-session hot state is stored:

    * ``"objects"`` (default) — one small Python object per session per
      concern, the reference implementation.
    * ``"soa"`` — a shared :class:`~repro.net.session_table.SessionTable`
      of numpy parallel arrays, built for 10^5-10^6 concurrent sessions
      (requires the optional ``[scale]`` extra).

    ``None`` defers to the ``REPRO_STATE_BACKEND`` environment variable
    (so experiment builders need no plumbing), falling back to
    ``"objects"``.  Both backends produce bit-identical dispatch
    digests (``tests/sim/test_state_backends.py``).
    """

    def __init__(self, *, sim: Optional[Simulator] = None, seed: int = 0,
                 tracer: Optional[Tracer] = None,
                 l_max_network: Optional[float] = None,
                 sanitizer: Optional["Sanitizer"] = None,
                 state_backend: Optional[str] = None) -> None:
        self.sim = sim or Simulator()
        state_backend = resolve_state_backend(state_backend)
        self.state_backend = state_backend
        self.session_table: Optional["SessionTable"] = None
        if state_backend == "soa":
            # Lazy import: the objects backend must not pay for (or
            # require) numpy.
            from repro.net.session_table import SessionTable
            self.session_table = SessionTable()
        if sanitizer is None and os.environ.get("REPRO_SANITIZE"):
            # Lazy import: the sanitizer module (and the env check
            # itself) must cost nothing on the default path, and the
            # analysis package pulls numpy/scipy-weight modules.
            from repro.analysis.verify.sanitizer import (
                Sanitizer as _Sanitizer,
                sanitize_enabled,
            )
            if sanitize_enabled(os.environ.get("REPRO_SANITIZE")):
                sanitizer = _Sanitizer()
        #: Conservation-law checker (``--sanitize`` /
        #: ``REPRO_SANITIZE=1``); shared with the kernel, every node,
        #: every scheduler, and the admission controller.  None in
        #: normal runs — the hooks are single ``is not None`` checks.
        self.sanitizer = sanitizer
        if sanitizer is not None:
            self.sim.sanitizer = sanitizer
        self.streams = RandomStreams(seed)
        self.tracer = tracer or Tracer(False)
        self.nodes: Dict[str, ServerNode] = {}
        self.sessions: Dict[str, Session] = {}
        self.sinks: Dict[str, Sink] = {}
        self.sources: List[object] = []
        #: ``L_MAX``: the maximum packet length allowed in the network
        #: (paper eq. 9 and eq. 13). Grows automatically as sessions
        #: register unless pinned explicitly here.
        self._l_max_network = l_max_network
        self._l_max_seen = 0.0
        #: Sessions removed while packets were still in flight:
        #: id -> (session, keep_sink). Finalized when the last packet
        #: reaches its sink or is dropped.
        self._draining: Dict[str, Tuple[Session, bool]] = {}
        #: Callbacks waiting for a draining session to finalize.
        self._drained_callbacks: Dict[str, List[Callable[[], None]]] = {}
        #: The armed fault injector, if any (see repro.faults); None in
        #: fault-free runs, so the delivery path pays one check.
        self.faults: Optional["FaultInjector"] = None
        #: Set when this network is one shard of a space-parallel run
        #: (see :mod:`repro.sim.parallel`); None in serial runs, so the
        #: forwarding path pays one ``is None`` check per transmission.
        self.shard: Optional["ShardContext"] = None

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def add_node(self, name: str, scheduler, *, capacity: float,
                 propagation: float = 0.0) -> ServerNode:
        """Create a server node with one outgoing link."""
        if name in self.nodes:
            raise ConfigurationError(f"duplicate node name {name!r}")
        link = Link(capacity, propagation)
        node = ServerNode(name, link, scheduler, self.sim, self.tracer)
        node.network = self
        if self.sanitizer is not None:
            node.sanitizer = self.sanitizer
            scheduler.sanitizer = self.sanitizer
        if self.session_table is not None:
            node.use_session_table(self.session_table)
        self.nodes[name] = node
        return node

    def add_session(self, session: Session, *, keep_samples: bool = True,
                    max_samples: Optional[int] = None,
                    warmup: float = 0.0,
                    keep_packets: bool = False,
                    sink: Optional[Sink] = None) -> Sink:
        """Register a session on every node of its route; create its sink.

        Pass ``sink`` to attach an existing (possibly shared) sink
        instead of creating a dedicated one — the heavy-traffic
        experiments aggregate 10^5 sessions into one
        :class:`~repro.net.sink.SharedSink` this way.
        """
        if session.id in self.sessions:
            raise ConfigurationError(f"duplicate session id {session.id!r}")
        if session.id in self._draining:
            raise ConfigurationError(
                f"session id {session.id!r} is still draining after "
                f"removal; let its in-flight packets arrive first")
        missing = [n for n in session.route if n not in self.nodes]
        if missing:
            raise ConfigurationError(
                f"session {session.id!r} routes through unknown nodes "
                f"{missing}")
        self.sessions[session.id] = session
        if session.l_max > self._l_max_seen:
            self._l_max_seen = session.l_max
        if self.session_table is not None:
            session.slot = self.session_table.acquire(session)
        for node_name in session.route:
            self.nodes[node_name].register_session(session)
        if sink is None:
            sink = Sink(session.id, keep_samples=keep_samples,
                        max_samples=max_samples, warmup=warmup,
                        keep_packets=keep_packets)
        self.sinks[session.id] = sink
        return sink

    def remove_session(self, session_id: str, *,
                       keep_sink: bool = True) -> None:
        """Tear a session out of the network (drain-then-forget).

        Drops the session from the routing table immediately, so its
        reserved rate stops counting and new traffic cannot be added
        for it. Per-node scheduler and buffer state — and, when
        ``keep_sink=False``, the sink — are cleared once the session
        has no packets in flight: right away if it already drained, or
        as soon as its last in-flight packet reaches the sink or is
        dropped. Stop the session's source before removal; long-running
        call churn relies on this to tear calls down mid-flight without
        waiting for the network to drain.
        """
        if self.shard is not None:
            # A removal's drain-then-forget bookkeeping needs a global
            # view of in-flight packets, which a single shard does not
            # have (the packet may be crossing a partition boundary).
            raise SimulationError(
                "remove_session is not supported in space-parallel "
                "(sharded) runs; run session churn serially")
        session = self.sessions.pop(session_id, None)
        if session is None:
            raise ConfigurationError(f"unknown session {session_id!r}")
        if self._in_flight(session) > 0:
            self._draining[session_id] = (session, keep_sink)
            return
        self._finalize_removal(session, keep_sink)

    def _in_flight(self, session: Session) -> int:
        """Packets injected but not yet delivered to the sink or dropped."""
        delivered = self.sinks[session.id].received
        dropped = sum(self.nodes[name].drop_count(session.id)
                      for name in session.route)
        return session.packets_sent - delivered - dropped

    def _finalize_removal(self, session: Session,
                          keep_sink: bool) -> None:
        """Clear per-node state once the session has fully drained."""
        for node_name in session.route:
            node = self.nodes[node_name]
            node.scheduler.forget_session(session.id)
            node.forget_session(session.id)
        if self.session_table is not None:
            self.session_table.release(session.id)
            session.slot = -1
        self._draining.pop(session.id, None)
        if not keep_sink:
            self.sinks.pop(session.id, None)
        for callback in self._drained_callbacks.pop(session.id, ()):
            callback()

    def notify_when_drained(self, session_id: str,
                            callback: Callable[[], None]) -> None:
        """Run ``callback`` once ``session_id`` has no packets in flight.

        Fires immediately when the session is not draining (already
        finalized, or never removed); otherwise it runs right after
        :meth:`_finalize_removal`, i.e. at the deterministic instant
        the last in-flight packet reaches its sink or is dropped.
        Fault recovery uses this to re-admit a torn-down session
        without colliding with stale per-node state.
        """
        if session_id in self._draining:
            self._drained_callbacks.setdefault(session_id, []) \
                .append(callback)
            return
        callback()

    def _drain_progress(self, session_id: str) -> None:
        """A draining session's packet arrived or dropped; maybe finalize."""
        entry = self._draining.get(session_id)
        if entry is None:
            return
        session, keep_sink = entry
        if self._in_flight(session) <= 0:
            self._finalize_removal(session, keep_sink)

    def packet_dropped(self, packet: Packet) -> None:
        """A node dropped ``packet`` (finite buffer); track draining."""
        if self._draining:
            self._drain_progress(packet.session.id)

    @property
    def l_max(self) -> float:
        """``L_MAX``, the largest packet length allowed in the network."""
        if self._l_max_network is not None:
            return self._l_max_network
        if self._l_max_seen > 0:
            return self._l_max_seen
        raise ConfigurationError(
            "L_MAX unknown: no sessions registered and no explicit value")

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def inject(self, session: Session, length: float) -> Packet:
        """A source hands the network a fully generated packet *now*.

        The packet's last bit is considered to arrive at the first node
        of the session's route at the current instant, which is the
        origin of the end-to-end delay measurement.
        """
        if session.id not in self.sessions:
            raise SimulationError(
                f"session {session.id!r} is not registered (removed or "
                f"never added) but its source is still injecting; stop "
                f"the source before remove_session")
        if length > session.l_max:
            raise SimulationError(
                f"session {session.id!r} generated a packet of {length} bits "
                f"exceeding its declared l_max {session.l_max}")
        session.packets_sent += 1
        packet = Packet(session, session.packets_sent, length, self.sim.now)
        packet.hop_index = 0
        san = self.sanitizer
        if san is not None:
            san.on_inject(packet)
        self.nodes[session.route[0]].receive(packet)
        return packet

    def deliver(self, packet: Packet) -> None:
        """Move a transmitted packet to its next hop or its sink."""
        faults = self.faults
        if faults is not None and faults.is_corrupted(packet):
            faults.corrupt_dropped(packet)
            return
        session = packet.session
        if session.is_last_hop(packet.hop_index):
            san = self.sanitizer
            if san is not None:
                san.on_sink(packet)
            self.sinks[session.id].receive(packet, self.sim.now)
            if self._draining:
                self._drain_progress(session.id)
            return
        packet.hop_index += 1
        self.nodes[session.node_at(packet.hop_index)].receive(packet)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def add_source(self, source) -> None:
        """Track a traffic source so :meth:`run` can start it."""
        self.sources.append(source)

    def run(self, duration: float) -> None:
        """Start all sources (idempotently) and run for ``duration`` seconds.

        Under ``--sanitize``, end-of-run balance checks execute here
        and a :class:`~repro.analysis.verify.sanitizer.SanitizerError`
        is raised when any invariant was violated during the run.

        The whole call runs with CPython's cyclic garbage collector
        paused (:func:`~repro.sim.collector.collector_paused`); the
        caller's collector state is restored however the call exits.
        """
        with collector_paused():
            for source in self.sources:
                start = getattr(source, "start", None)
                started = getattr(source, "started", False)
                if start is not None and not started:
                    start()
            self.sim.run(until=duration)
            san = self.sanitizer
            if san is not None:
                san.finalize(self)
                if san.violations or san.dropped_violations:
                    from repro.analysis.verify.sanitizer import SanitizerError
                    raise SanitizerError(san.report().to_json())

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def sink(self, session_id: str) -> Sink:
        return self.sinks[session_id]

    def node(self, name: str) -> ServerNode:
        return self.nodes[name]

    def reserved_rate(self, node_name: str) -> float:
        """Sum of reserved rates of sessions traversing ``node_name``."""
        return sum(s.rate for s in self.sessions.values()
                   if node_name in s.route)
