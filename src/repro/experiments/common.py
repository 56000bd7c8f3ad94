"""Shared builders and paper constants for the Section-3 experiments.

All the paper's simulations share: 424-bit packets, the Figure-6
T1 tandem, 32 kbit/s ON-OFF sessions with T = 13.25 ms and
a_ON = 352 ms, the a_OFF sweep {6.5 ... 650} ms, and the MIX / CROSS
traffic configurations. The builders here assemble those pieces so
each figure module only states what differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.net.network import Network
from repro.net.route import route_from_letters
from repro.net.session import Session
from repro.net.topology import (
    CROSS_ONE_HOP_ROUTES,
    MIX_ROUTE_COUNTS,
    build_paper_network,
)
from repro.sched.leave_in_time import LeaveInTime
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.traffic.onoff import OnOffSource
from repro.traffic.poisson import PoissonSource
from repro.units import ms

__all__ = [
    "PAPER_PACKET_BITS",
    "PAPER_SPACING_S",
    "PAPER_A_ON_S",
    "PAPER_A_OFF_SWEEP_S",
    "PAPER_ONOFF_RATE_BPS",
    "PAPER_CROSS_POISSON_RATE_BPS",
    "PAPER_CROSS_POISSON_MEAN_S",
    "SessionSpec",
    "build_mix_network",
    "build_cross_network",
    "add_onoff_session",
    "add_poisson_cross_traffic",
]

#: 424-bit ATM packets, used by every source in Section 3.
PAPER_PACKET_BITS = 424.0

#: In-burst packet spacing T = 13.25 ms (32 kbit/s at 424 bits).
PAPER_SPACING_S = ms(13.25)

#: Mean ON duration a_ON = 352 ms.
PAPER_A_ON_S = ms(352)

#: The a_OFF sweep of Figures 7 and 14-17.
PAPER_A_OFF_SWEEP_S = tuple(ms(v) for v in
                            (6.5, 18.5, 39.1, 88.0, 150.9, 288.0, 650.0))

#: Reserved rate of every ON-OFF (and Deterministic) session.
PAPER_ONOFF_RATE_BPS = 32_000.0

#: The Figure-8/10 Poisson cross traffic: 1472 kbit/s reserved,
#: a_P = 0.28804 ms.
PAPER_CROSS_POISSON_RATE_BPS = 1_472_000.0
PAPER_CROSS_POISSON_MEAN_S = 0.28804e-3


@dataclass
class SessionSpec:
    """One MIX session's identity: route label and index within it."""

    label: str
    index: int

    @property
    def session_id(self) -> str:
        return f"{self.label}/{self.index}"

    @property
    def route(self) -> List[str]:
        entrance, exit_ = self.label.split("-")
        return route_from_letters(entrance, exit_)


def mix_specs() -> List[SessionSpec]:
    """Every MIX session in deterministic order."""
    specs = []
    for label in sorted(MIX_ROUTE_COUNTS):
        for index in range(1, MIX_ROUTE_COUNTS[label] + 1):
            specs.append(SessionSpec(label, index))
    return specs


def add_onoff_session(network: Network, session_id: str,
                      route: Sequence[str], a_off: float, *,
                      jitter_control: bool = False,
                      monitor_buffer: bool = False,
                      keep_samples: bool = False,
                      keep_trace: bool = False,
                      warmup: float = 0.0) -> Session:
    """A paper-standard 32 kbit/s ON-OFF session with its source.

    The session declares conformance to the token bucket
    ``(32 kbit/s, 424 bits)`` — valid because in-burst spacing is
    exactly T = L/r and burst gaps are at least T — which is what the
    figures' bound curves use for ``D_ref`` (eq. 14).
    """
    session = Session(session_id, rate=PAPER_ONOFF_RATE_BPS,
                      route=route, l_max=PAPER_PACKET_BITS,
                      jitter_control=jitter_control,
                      token_bucket=(PAPER_ONOFF_RATE_BPS,
                                    PAPER_PACKET_BITS),
                      monitor_buffer=monitor_buffer)
    network.add_session(session, keep_samples=keep_samples, warmup=warmup)
    OnOffSource(network, session, length=PAPER_PACKET_BITS,
                spacing=PAPER_SPACING_S, mean_on=PAPER_A_ON_S,
                mean_off=a_off, keep_trace=keep_trace)
    return session


def build_mix_network(a_off: float, *,
                      scheduler_factory: Callable[[], object] = LeaveInTime,
                      seed: int = 0,
                      jitter_ids: Set[str] = frozenset(),
                      sample_ids: Set[str] = frozenset(),
                      monitor_buffer_ids: Set[str] = frozenset(),
                      admit: Optional[Callable[[Network, Session], None]]
                      = None,
                      sim: Optional[Simulator] = None,
                      order_seed: Optional[int] = None) -> Network:
    """The MIX configuration: 116 ON-OFF sessions, 48 per node.

    ``jitter_ids`` / ``sample_ids`` / ``monitor_buffer_ids`` select
    sessions (by ``"label/index"`` id) that get delay-jitter control,
    raw delay samples, and buffer monitoring respectively. ``admit``,
    when given, is called with each session *before* traffic starts so
    an admission controller can install per-node delay policies.

    ``sim`` injects a pre-built simulator; ``order_seed``, when set,
    registers the sessions in a seeded-shuffled order instead of the
    canonical sorted one.  Both exist for the schedule-perturbation
    differ (``repro-analyze --perturb``): because every random stream is
    named by the session's stable id, a shuffled registration order
    must leave all observables bit-identical — any difference is a
    hidden order dependence.
    """
    network = build_paper_network(scheduler_factory, seed=seed, sim=sim)
    specs = mix_specs()
    if order_seed is not None:
        RandomStreams(order_seed).stream("registration-order").shuffle(specs)
    for spec in specs:
        session_id = spec.session_id
        session = Session(session_id, rate=PAPER_ONOFF_RATE_BPS,
                          route=spec.route, l_max=PAPER_PACKET_BITS,
                          jitter_control=session_id in jitter_ids,
                          token_bucket=(PAPER_ONOFF_RATE_BPS,
                                        PAPER_PACKET_BITS),
                          monitor_buffer=session_id in monitor_buffer_ids)
        if admit is not None:
            admit(network, session)  # repro: disable=unreleased-reservation -- caller-supplied callback wrapping AdmissionController.admit, which is transactional (releases on rejection)
        network.add_session(session,
                            keep_samples=session_id in sample_ids)
        OnOffSource(network, session, length=PAPER_PACKET_BITS,
                    spacing=PAPER_SPACING_S, mean_on=PAPER_A_ON_S,
                    mean_off=a_off)
    return network


def add_poisson_cross_traffic(network: Network, *,
                              rate: float = PAPER_CROSS_POISSON_RATE_BPS,
                              mean: float = PAPER_CROSS_POISSON_MEAN_S,
                              length: float = PAPER_PACKET_BITS
                              ) -> List[Session]:
    """One Poisson session per one-hop CROSS route."""
    sessions = []
    for label in CROSS_ONE_HOP_ROUTES:
        entrance, exit_ = label.split("-")
        session = Session(f"cross-{label}", rate=rate,
                          route=route_from_letters(entrance, exit_),
                          l_max=length)
        network.add_session(session, keep_samples=False)
        PoissonSource(network, session, length=length, mean=mean)
        sessions.append(session)
    return sessions


def build_cross_network(*,
                        scheduler_factory: Callable[[], object]
                        = LeaveInTime,
                        seed: int = 0) -> Network:
    """The CROSS configuration's empty network (targets added by caller)."""
    return build_paper_network(scheduler_factory, seed=seed)
