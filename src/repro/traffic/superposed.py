"""Superposed Poisson traffic: one clock drives many sessions.

At the heavy-traffic scale (10^4-10^6 concurrent sessions,
``docs/heavy_traffic.md``) one :class:`~repro.traffic.poisson
.PoissonSource` per session is ruinous twice over: each source owns a
named Mersenne Twister stream (~2.5 KB of state) and keeps one pending
timer event per session in the kernel heap, so the heap holds 10^5
events at all times.

The superposition property of the Poisson process gives an exact
escape: ``N`` independent Poisson processes of rate ``λ`` are
distributionally identical to **one** Poisson process of rate ``N·λ``
whose arrivals are marked uniformly at random with a session index.
:class:`SuperposedPoissonSource` implements the marked single-clock
form: one exponential gap sampler at the aggregate rate, one uniform
session pick per packet, one pending event in the heap, two RNG
streams total.

The two forms are *statistically* equivalent but draw different random
numbers, so they are **not** bit-identical to each other — use the
same source construction on both sides of any digest comparison.
``repro.experiments.heavy_traffic`` builds every cell with the
superposed form.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.net.network import Network
from repro.net.session import Session
from repro.sim.process import Process
from repro.sim.rng import ExponentialSampler

__all__ = ["SuperposedPoissonSource"]


class SuperposedPoissonSource:
    """One Poisson clock feeding ``N`` sessions by uniform marking.

    Parameters
    ----------
    network / sessions:
        The sessions to feed; all must already be added to the network.
    length:
        Packet length in bits (fixed, as in the paper's experiments).
    mean:
        Mean interarrival *per session* in seconds; the aggregate
        clock runs at ``len(sessions) / mean`` arrivals per second.
    label:
        Names the two RNG streams (``superposed:<label>:gaps`` and
        ``superposed:<label>:picks``), so adding other traffic never
        shifts this source's random numbers.
    start_delay / max_packets:
        As in :class:`~repro.traffic.base.TrafficSource`.
    """

    def __init__(self, network: Network, sessions: Sequence[Session], *,
                 length: float, mean: float, label: str = "agg",
                 start_delay: float = 0.0,
                 max_packets: Optional[int] = None) -> None:
        if not sessions:
            raise ConfigurationError(
                "SuperposedPoissonSource needs at least one session")
        self.network = network
        self.sessions: List[Session] = list(sessions)
        self.length = float(length)
        self.label = label
        self._gap = ExponentialSampler(
            network.streams.stream(f"superposed:{label}:gaps"),
            mean / len(self.sessions))
        self._pick = network.streams.stream(f"superposed:{label}:picks")
        self.start_delay = float(start_delay)
        self.max_packets = max_packets
        self.emitted = 0
        self.started = False
        self._process: Optional[Process] = None
        network.add_source(self)

    @property
    def mean_interarrival(self) -> float:
        """Aggregate mean interarrival of the superposed clock."""
        return self._gap.mean

    def start(self) -> "SuperposedPoissonSource":
        if self.started:
            return self
        self.started = True
        self._process = Process(self.network.sim, self._run(),
                                name=f"superposed:{self.label}")
        self._process.start(self.start_delay)
        return self

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()

    def _run(self):
        n = len(self.sessions)
        while True:
            yield self._gap.sample()
            session = self.sessions[self._pick.randrange(n)]
            self.network.inject(session, self.length)
            self.emitted += 1
            if (self.max_packets is not None
                    and self.emitted >= self.max_packets):
                return
