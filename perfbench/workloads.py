"""The benchmark's four whole-simulation workloads.

Each workload builds a scenario from a seed through the public API of
``repro`` and exposes what the runner needs to check the simulated
output: a digest of the observables, packet-conservation totals, and
the eq.-12 delay bound of every Leave-in-Time session that has one.
Every workload runs the default kernel and state backend under
Leave-in-Time.
"""

from __future__ import annotations

import hashlib
import os
import random
from functools import partial
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, \
    Tuple

from repro.admission import AdmissionController, DelayClass, Procedure1
from repro.bounds import delay as bounds_delay
from repro.errors import AdmissionError
from repro.experiments.common import (
    PAPER_A_ON_S,
    PAPER_CROSS_POISSON_MEAN_S,
    PAPER_CROSS_POISSON_RATE_BPS,
    PAPER_ONOFF_RATE_BPS,
    PAPER_PACKET_BITS,
    PAPER_SPACING_S,
    add_onoff_session,
    build_mix_network,
)
from repro.faults import FaultInjector, FaultPlan, LinkDown, PacketLoss
from repro.net import Network, Session, Sink, build_paper_network, \
    route_from_letters
from repro.net.topology import CROSS_ONE_HOP_ROUTES, PaperTopology
from repro.sched import LeaveInTime
from repro.traffic import OnOffSource, PoissonSource
from repro.units import T1_RATE_BPS, ms

__all__ = ["WORKLOADS", "Workload", "Scenario", "current_rss_kb"]

FIVE_HOP = ["n1", "n2", "n3", "n4", "n5"]


_PAGE_KB = os.sysconf("SC_PAGE_SIZE") / 1024.0


def current_rss_kb() -> float:
    """Resident set size of this process now, in KiB (Linux)."""
    with open("/proc/self/statm") as statm:
        resident_pages = int(statm.read().split()[1])
    return resident_pages * _PAGE_KB


class Scenario:
    """A built workload: its network, horizon and output checks."""

    def __init__(self, network: Network, horizon: float) -> None:
        self.network = network
        self.horizon = horizon

    def sessions(self) -> Iterator[Tuple[str, Session, Sink]]:
        sinks = self.network.sinks
        for session_id, session in self.network.sessions.items():
            yield session_id, session, sinks[session_id]

    def digest(self) -> str:
        """SHA-256 over per-session sink observables, per-node
        ``packets_served`` and the events dispatched so far."""
        hasher = hashlib.sha256()
        self._digest_sessions(hasher)
        network = self.network
        for name in sorted(network.nodes):
            hasher.update(f"node {name} "
                          f"{network.nodes[name].packets_served}\n"
                          .encode())
        hasher.update(f"events {network.sim.events_dispatched}\n".encode())
        return hasher.hexdigest()

    def _digest_sessions(self, hasher) -> None:
        for session_id, _, sink in self.sessions():
            hasher.update(_sink_line(session_id, sink))

    def totals(self) -> Tuple[int, int, int]:
        """Packets ``(injected, delivered, dropped)`` so far."""
        injected = delivered = 0
        for _, session, sink in self.sessions():
            injected += session.packets_sent
            delivered += sink.received
        return injected, delivered, self._dropped()

    def _dropped(self) -> int:
        return sum(sum(node.drops.values())
                   for node in self.network.nodes.values())

    def stop_traffic(self) -> None:
        """Stop every packet and event source so the network drains."""
        for source in self.network.sources:
            source.stop()

    def check_bounds(self) -> Tuple[int, List[str]]:
        """Eq.-12 check of every session declaring a token bucket.

        Returns the number of sessions checked and a description of
        each violation.
        """
        checked, failures = 0, []
        for session_id, session, sink in self.sessions():
            if session.token_bucket is None:
                continue
            checked += 1
            _check_bound(failures, session_id, sink,
                         bounds_delay.compute_session_bounds(
                             self.network, session).max_delay)
        return checked, failures

    def memory_metrics(self, rss_kb: float) -> Dict[str, float]:
        """Workload-specific memory figures read at the horizon."""
        return {}

    def fault_drops(self) -> int:
        """Packets dropped by injected faults (no injector: none)."""
        return 0


def _sink_line(key: object, sink: Sink) -> bytes:
    return (f"{key} {sink.received} {sink.max_delay!r} "
            f"{sink.jitter!r}\n").encode()


def _check_bound(failures: List[str], label: object, sink: Sink,
                 bound: float) -> None:
    if not sink.max_delay <= bound:
        failures.append(f"{label}: max delay {sink.max_delay!r} > "
                        f"bound {bound!r}")


# ----------------------------------------------------------------------
# mix_saturated: the Figure-7 MIX cell at a_OFF = 6.5 ms
# ----------------------------------------------------------------------
def build_mix_saturated(seed: int) -> Scenario:
    return Scenario(build_mix_network(ms(6.5), seed=seed), 40.0)


# ----------------------------------------------------------------------
# heavy_tandem: 10^5 Poisson sessions on a 3-node tandem at rho = 0.99
# ----------------------------------------------------------------------
HEAVY_SESSIONS = 100_000
HEAVY_RHO = 0.99


def build_heavy_tandem(seed: int) -> Scenario:
    """One ``PoissonSource`` and one sink per session, each session
    reserving ``C/N``; the aggregate arrival rate is ``rho * C / L``."""
    network = PaperTopology(LeaveInTime, node_count=3, seed=seed).build()
    route = ["n1", "n2", "n3"]
    rate = T1_RATE_BPS / HEAVY_SESSIONS
    mean = PAPER_PACKET_BITS * HEAVY_SESSIONS / (HEAVY_RHO * T1_RATE_BPS)
    for index in range(HEAVY_SESSIONS):
        session = Session(f"h{index}", rate=rate, route=route,
                          l_max=PAPER_PACKET_BITS)
        network.add_session(session, keep_samples=False)
        PoissonSource(network, session, length=PAPER_PACKET_BITS,
                      mean=mean)
    return Scenario(network, 10.0)


# ----------------------------------------------------------------------
# churn_storm: short calls under procedure-1 admission on the 5-hop route
# ----------------------------------------------------------------------
CHURN_ERLANGS = 60.0
CHURN_MEAN_HOLDING_S = 0.2
CHURN_MEAN_OFF_S = ms(650)


class _Call(NamedTuple):
    session: Session
    sink: Sink
    bound: float


class ChurnStorm(Scenario):
    """Poisson call arrivals with exponential holding times.

    Arrivals and holding times come from the benchmark's own seeded
    streams.  An accepted call is admitted at every hop, registered,
    bounded with eq. 12 and given an ON-OFF voice source; at the end of
    its holding time it is released and removed while its packets may
    still be in flight.  Its sink figures are folded into the digest
    once the network reports the call drained, so the benchmark keeps
    nothing per finished call.
    """

    def __init__(self, network: Network, seed: int,
                 horizon: float) -> None:
        super().__init__(network, horizon)
        self.controller = AdmissionController(
            network,
            lambda node: Procedure1(node.link.capacity,
                                    [DelayClass(node.link.capacity,
                                                PAPER_SPACING_S)]))
        self._arrivals = random.Random(f"perfbench-churn-arrivals-{seed}")
        self._holding = random.Random(f"perfbench-churn-holding-{seed}")
        self.attempts = 0
        self.accepted = 0
        #: call id -> (call, source, teardown event) while holding.
        self._active: Dict[int, tuple] = {}
        #: call id -> call, removed but with packets still in flight.
        self._draining: Dict[int, _Call] = {}
        self._finished = hashlib.sha256()
        self._finished_sent = 0
        self._finished_received = 0
        self._finished_checked = 0
        self._finished_failures: List[str] = []
        #: (RSS KiB, calls accepted) sampled at a quarter of the horizon.
        self._probe: Optional[Tuple[float, int]] = None
        self._next_arrival = network.sim.schedule(self._gap(),
                                                  self._arrive)

    def _gap(self) -> float:
        return self._arrivals.expovariate(
            CHURN_ERLANGS / CHURN_MEAN_HOLDING_S)

    def _arrive(self) -> None:
        network = self.network
        sim = network.sim
        if self._probe is None and sim.now >= self.horizon / 4:
            self._probe = (current_rss_kb(), self.accepted)
        call_id = self.attempts
        self.attempts += 1
        session = Session(f"call-{call_id}", rate=PAPER_ONOFF_RATE_BPS,
                          route=FIVE_HOP, l_max=PAPER_PACKET_BITS,
                          token_bucket=(PAPER_ONOFF_RATE_BPS,
                                        PAPER_PACKET_BITS))
        try:
            self.controller.admit(session, class_number=1)
        except AdmissionError:
            pass
        else:
            self.accepted += 1
            sink = network.add_session(session, keep_samples=False)
            bound = bounds_delay.compute_session_bounds(
                network, session).max_delay
            source = OnOffSource(network, session,
                                 length=PAPER_PACKET_BITS,
                                 spacing=PAPER_SPACING_S,
                                 mean_on=PAPER_A_ON_S,
                                 mean_off=CHURN_MEAN_OFF_S)
            source.start()
            teardown = sim.schedule(
                self._holding.expovariate(1.0 / CHURN_MEAN_HOLDING_S),
                self._depart, call_id)
            self._active[call_id] = (_Call(session, sink, bound), source,
                                     teardown)
        self._next_arrival = sim.schedule(self._gap(), self._arrive)

    def _depart(self, call_id: int) -> None:
        call, source, _ = self._active.pop(call_id)
        source.stop()
        self.controller.release(call.session)
        self._draining[call_id] = call
        session_id = call.session.id
        self.network.remove_session(session_id, keep_sink=False)
        self.network.notify_when_drained(
            session_id, partial(self._drained, call_id))

    def _drained(self, call_id: int) -> None:
        call = self._draining.pop(call_id)
        sink = call.sink
        self._finished.update(_sink_line(call_id, sink))
        self._finished_sent += call.session.packets_sent
        self._finished_received += sink.received
        self._finished_checked += 1
        _check_bound(self._finished_failures, f"call-{call_id}", sink,
                     call.bound)

    def _live_calls(self) -> List[Tuple[int, _Call]]:
        calls = [(call_id, entry[0])
                 for call_id, entry in self._active.items()]
        calls.extend(self._draining.items())
        return sorted(calls, key=lambda item: item[0])

    def _digest_sessions(self, hasher) -> None:
        hasher.update(f"calls {self.attempts} {self.accepted} "
                      f"{self._finished.hexdigest()}\n".encode())
        for call_id, call in self._live_calls():
            hasher.update(_sink_line(call_id, call.sink))

    def totals(self) -> Tuple[int, int, int]:
        injected = self._finished_sent
        delivered = self._finished_received
        for _, call in self._live_calls():
            injected += call.session.packets_sent
            delivered += call.sink.received
        return injected, delivered, self._dropped()

    def stop_traffic(self) -> None:
        self._next_arrival.cancel()
        for _, source, teardown in self._active.values():
            source.stop()
            teardown.cancel()

    def check_bounds(self) -> Tuple[int, List[str]]:
        checked = self._finished_checked
        failures = list(self._finished_failures)
        for call_id, call in self._live_calls():
            checked += 1
            _check_bound(failures, f"call-{call_id}", call.sink,
                         call.bound)
        return checked, failures

    def memory_metrics(self, rss_kb: float) -> Dict[str, float]:
        """RSS growth per call accepted after the first quarter."""
        if self._probe is None or self.accepted <= self._probe[1]:
            return {"net.session.retained_kb_per_call": 0.0}
        probe_rss, probe_accepted = self._probe
        return {"net.session.retained_kb_per_call":
                (rss_kb - probe_rss) / (self.accepted - probe_accepted)}


def build_churn_storm(seed: int) -> Scenario:
    return ChurnStorm(build_paper_network(LeaveInTime, seed=seed), seed,
                      60.0)


# ----------------------------------------------------------------------
# fault_flap: the fault_sweep cell, feeder link down 2 s then 1 s of loss
# ----------------------------------------------------------------------
FAULT_TARGET = "onoff-target"
FAULT_FEEDER = "x0"
FAULT_FEEDER_RATE_BPS = 16_000_000.0
FAULT_HORIZON_S = 12.0


class FaultFlap(Scenario):
    def __init__(self, network: Network, injector: FaultInjector) -> None:
        super().__init__(network, FAULT_HORIZON_S)
        self.injector = injector

    def fault_drops(self) -> int:
        return sum(state.dropped() for state in self.injector.states.values())


def build_fault_flap(seed: int) -> Scenario:
    """The Leave-in-Time fault_sweep cell with a 2 s outage.

    Five Poisson cross sessions enter through the fast feeder ``x0``;
    its link is down over [3, 5) s (backlog requeued on recovery), then
    drops 5% of its packets over [5, 6) s.
    """
    network = build_paper_network(LeaveInTime, seed=seed)
    network.add_node(FAULT_FEEDER, LeaveInTime(),
                     capacity=FAULT_FEEDER_RATE_BPS,
                     propagation=network.nodes["n1"].link.propagation)
    add_onoff_session(network, FAULT_TARGET, FIVE_HOP, ms(650),
                      keep_samples=True)
    for label in CROSS_ONE_HOP_ROUTES:
        entrance, exit_ = label.split("-")
        session = Session(f"cross-{label}",
                          rate=PAPER_CROSS_POISSON_RATE_BPS,
                          route=[FAULT_FEEDER]
                          + route_from_letters(entrance, exit_),
                          l_max=PAPER_PACKET_BITS)
        network.add_session(session, keep_samples=False)
        PoissonSource(network, session, length=PAPER_PACKET_BITS,
                      mean=PAPER_CROSS_POISSON_MEAN_S)
    down_at = FAULT_HORIZON_S / 4.0
    up_at = down_at + 2.0
    plan = FaultPlan(
        link_downs=[LinkDown(FAULT_FEEDER, down_at, up_at,
                             on_recovery="requeue")],
        losses=[PacketLoss(FAULT_FEEDER, up_at, up_at + 1.0, 0.05)])
    return FaultFlap(network, FaultInjector(plan).install(network))


class Workload(NamedTuple):
    build: Callable[[int], Scenario]
    #: Builds per measured run; ``setup_s`` is their median.
    setup_repeats: int


WORKLOADS: Dict[str, Workload] = {
    "mix_saturated": Workload(build_mix_saturated, 21),
    "heavy_tandem": Workload(build_heavy_tandem, 1),
    "churn_storm": Workload(build_churn_storm, 21),
    "fault_flap": Workload(build_fault_flap, 21),
}
