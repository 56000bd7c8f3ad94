"""Common machinery for traffic sources.

A source is bound to a network and a session; when started it runs as a
generator process that injects packets at the session's first node. A
source optionally keeps its emission trace (times and lengths), which
the distribution experiments feed to the session's *reference server*
to obtain the paper's "simulated upper bound" without a second run.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, cast

from repro.net.network import Network
from repro.net.session import Session
from repro.sim.process import Process

__all__ = ["TrafficSource"]


class TrafficSource:
    """Base class: subclasses implement :meth:`intervals`.

    Parameters
    ----------
    network / session:
        Where packets go. The source registers itself with the network
        so :meth:`repro.net.network.Network.run` starts it.
    length:
        Packet length in bits for every emitted packet (the paper uses
        fixed 424-bit packets throughout). Subclasses may override
        :meth:`next_length` for variable sizes.
    length_sampler:
        Optional sampler from :mod:`repro.traffic.lengths`; when given
        it overrides ``length`` per packet (``length`` then only seeds
        the default). Exercises the variable-length code paths of the
        discipline (eq. 9's ``d_max − d_i`` term, the α constant).
    shaper:
        Optional ``(rate, depth)`` ingress token-bucket shaper. Packets
        the raw process would emit too early are held at the source
        until they conform, so the injected traffic satisfies the
        token-bucket envelope — and therefore the session earns the
        eq.-14 reference delay bound ``depth/rate`` no matter how
        bursty the underlying process is. This is the paper's remark
        that a session "may need to reserve more bandwidth than its
        average rate in order to reduce the end-to-end delay", realized
        as a mechanism.
    start_delay:
        Offset before the first interval is drawn, useful to desynchronize
        deterministic sources.
    keep_trace:
        Record (emission time, length) pairs in ``trace_times`` and
        ``trace_lengths``; both are empty sequences when off.
    max_packets:
        Stop after emitting this many packets (None = unbounded).
    """

    def __init__(self, network: Network, session: Session, *,
                 length: float, start_delay: float = 0.0,
                 keep_trace: bool = False,
                 max_packets: Optional[int] = None,
                 length_sampler=None,
                 shaper: Optional[tuple] = None) -> None:
        self.network = network
        self.session = session
        self.length = float(length)
        self.length_sampler = length_sampler
        if shaper is None:
            self._shaper_bucket = None
        else:
            from repro.traffic.token_bucket import TokenBucket
            shaper_rate, shaper_depth = shaper
            self._shaper_bucket = TokenBucket(shaper_rate, shaper_depth)
        self.start_delay = float(start_delay)
        self.keep_trace = keep_trace
        self.max_packets = max_packets
        self.emitted = 0
        # Without tracing both read as the shared empty tuple, so a
        # 10^5-session build allocates no per-source trace lists.
        self.trace_times: Sequence[float] = [] if keep_trace else ()
        self.trace_lengths: Sequence[float] = [] if keep_trace else ()
        self.started = False
        self._process: Optional[Process] = None
        network.add_source(self)

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    def intervals(self):
        """Generator of inter-emission delays in seconds.

        The first yielded value is the delay from the start of the
        source to the first packet; each later value is the gap to the
        next packet.
        """
        raise NotImplementedError

    def next_length(self) -> float:
        """Length of the next packet in bits."""
        if self.length_sampler is not None:
            return self.length_sampler.sample()
        return self.length

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "TrafficSource":
        if self.started:
            return self
        self.started = True
        self._process = Process(self.network.sim, self._run(),
                                name=f"source:{self.session.id}")
        self._process.start(self.start_delay)
        return self

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()

    def _run(self):
        network = self.network
        sim = network.sim
        bucket = self._shaper_bucket
        for gap in self.intervals():
            yield gap
            length = self.next_length()
            if bucket is not None:
                now = sim.now
                release = bucket.earliest(length, now)
                if release > now:
                    yield release - now
                bucket.consume(length, sim.now)
            self._emit(length)
            if (self.max_packets is not None
                    and self.emitted >= self.max_packets):
                return

    def _emit(self, length: Optional[float] = None) -> None:
        if length is None:
            length = self.next_length()
        network = self.network
        network.inject(self.session, length)
        self.emitted += 1
        if self.keep_trace:
            cast(List[float], self.trace_times).append(network.sim.now)
            cast(List[float], self.trace_lengths).append(length)
