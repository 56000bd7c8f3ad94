"""The simulator leaves no cyclic garbage, so ``Network.run`` may pause GC.

``Network.run`` runs with CPython's cyclic collector paused
(:func:`repro.sim.collector.collector_paused`).  That is safe only if
nothing a run discards is kept alive by a reference cycle: reference
counting must free it all.  Each scenario here is built, collected,
run, and collected again; the second collection must find nothing.
The scenarios cover the feature set: every discipline, every source
kind, session churn, every fault family, the tracer and the sanitizer.

A failure names the types of the cyclic garbage found.  Break the cycle
in the code; do not loosen the check.
"""

from __future__ import annotations

import gc
from collections import Counter
from typing import Callable

import pytest

from repro.admission import AdmissionController, DelayClass, Procedure1
from repro.analysis.verify.sanitizer import Sanitizer
from repro.faults import (
    FaultInjector,
    FaultPlan,
    LinkDown,
    NodeRestart,
    PacketCorruption,
    PacketLoss,
    SessionOutage,
)
from repro.net.network import Network
from repro.net.session import Session
from repro.net.sink import Sink
from repro.sched import (
    FCFS,
    RCSP,
    WFQ,
    DeficitRoundRobin,
    HierarchicalRoundRobin,
    JitterEDD,
    LeaveInTime,
)
from repro.sim.trace import Tracer
from repro.traffic import (
    DeterministicSource,
    OnOffSource,
    PoissonSource,
    TraceSource,
)
from repro.traffic.superposed import SuperposedPoissonSource

#: 1 Mbit/s links and 1000-bit packets: one packet transmits in 1 ms.
CAPACITY = 1e6
LENGTH = 1000.0
ROUTE = ["n1", "n2", "n3"]


def assert_run_leaves_no_cycles(network: Network, duration: float) -> None:
    """Collect, run, collect again; the second collection finds nothing."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        network.run(duration)
        found = gc.collect()
        kinds = Counter(type(obj).__qualname__ for obj in gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
    assert found == 0, f"cyclic garbage left by the run: {dict(kinds)}"


def tandem(scheduler_factory: Callable[[], object], *, nodes: int = 3,
           trace: bool = False,
           sanitizer: Sanitizer | None = None) -> Network:
    network = Network(seed=7, tracer=Tracer(trace), sanitizer=sanitizer)
    for index in range(1, nodes + 1):
        network.add_node(f"n{index}", scheduler_factory(),
                         capacity=CAPACITY, propagation=1e-4)
    return network


def add_session(network: Network, session_id: str, *,
                rate: float = 1e5, route=None,
                jitter_control: bool = False) -> Session:
    session = Session(session_id, rate=rate, route=list(route or ROUTE),
                      l_max=LENGTH, jitter_control=jitter_control)
    network.add_session(session, keep_samples=False)
    return session


def add_onoff(network: Network, session: Session) -> OnOffSource:
    return OnOffSource(network, session, length=LENGTH, spacing=0.002,
                       mean_on=0.02, mean_off=0.03)


# ----------------------------------------------------------------------
# Leave-in-Time: jitter control, regulator holds, forget_session flush
# ----------------------------------------------------------------------
def test_leave_in_time_jitter_control_holds_and_flush():
    network = tandem(LeaveInTime, trace=True)
    held = add_session(network, "held", jitter_control=True)
    # Back-to-back bursts on a jitter-controlled session fill the
    # downstream regulators; the cross session makes the first hop late.
    TraceSource(network, held, times=[0.0] * 20 + [0.05] * 20,
                lengths=LENGTH)
    cross = add_session(network, "cross", rate=5e5, route=["n1"])
    PoissonSource(network, cross, length=LENGTH, mean=0.0025)
    for index in range(4):
        add_onoff(network, add_session(network, f"v{index}",
                                       jitter_control=True))
    # Flush the held session's regulators mid-run, as teardown would.
    for name in ("n2", "n3"):
        scheduler = network.node(name).scheduler
        network.sim.schedule(0.03, scheduler.forget_session, "held")
    assert_run_leaves_no_cycles(network, 0.5)
    assert network.tracer.count("flush") > 0
    assert network.sink("held").received == 40


# ----------------------------------------------------------------------
# Every other discipline
# ----------------------------------------------------------------------
DISCIPLINES = {
    "fcfs": FCFS,
    "wfq": WFQ,
    "jitter_edd": JitterEDD,
    "hrr": lambda: HierarchicalRoundRobin(frame=0.01),
    "rcsp": lambda: RCSP([0.005, 0.05]),
    "drr": lambda: DeficitRoundRobin(quantum_scale=LENGTH),
}


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_disciplines(name):
    network = tandem(DISCIPLINES[name])
    for index in range(6):
        add_onoff(network, add_session(network, f"s{index}"))
    burst = add_session(network, "burst")
    TraceSource(network, burst, times=[0.0] * 10, lengths=LENGTH)
    assert_run_leaves_no_cycles(network, 0.5)
    assert sum(sink.received for sink in network.sinks.values()) > 0


# ----------------------------------------------------------------------
# Every source kind
# ----------------------------------------------------------------------
def test_sources():
    network = tandem(LeaveInTime)
    add_onoff(network, add_session(network, "onoff"))
    PoissonSource(network, add_session(network, "poisson"),
                  length=LENGTH, mean=0.004)
    DeterministicSource(network, add_session(network, "det"),
                        length=LENGTH, interval=0.005)
    PoissonSource(network, add_session(network, "shaped"),
                  length=LENGTH, mean=0.002,
                  shaper=(1e5, 2 * LENGTH))
    TraceSource(network, add_session(network, "trace"),
                times=[0.0, 0.001, 0.1], lengths=[LENGTH, 500.0, 800.0],
                keep_trace=True)
    shared = Sink("aggregate", keep_samples=False)
    members = []
    for index in range(5):
        session = Session(f"agg{index}", rate=2e4, route=ROUTE,
                          l_max=LENGTH)
        network.add_session(session, sink=shared, keep_samples=False)
        members.append(session)
    SuperposedPoissonSource(network, members, length=LENGTH, mean=0.02)
    assert_run_leaves_no_cycles(network, 0.5)
    assert all(source.emitted > 0 for source in network.sources)


# ----------------------------------------------------------------------
# Churn: remove_session mid-flight and notify_when_drained
# ----------------------------------------------------------------------
def test_churn_remove_session_and_drain_notification():
    network = tandem(LeaveInTime)
    sim = network.sim
    drained = []

    def call(index: int) -> None:
        session = add_session(network, f"call{index}",
                              jitter_control=index % 2 == 0)
        source = add_onoff(network, session).start()
        sim.schedule(0.04, hang_up, session, source)

    def hang_up(session: Session, source: OnOffSource) -> None:
        source.stop()
        network.remove_session(session.id, keep_sink=False)
        network.notify_when_drained(session.id,
                                    lambda: drained.append(session.id))

    for index in range(20):
        sim.schedule(0.01 * index, call, index)
    assert_run_leaves_no_cycles(network, 0.5)
    assert len(drained) == 20
    assert not network.sessions


# ----------------------------------------------------------------------
# Faults
# ----------------------------------------------------------------------
def faulted_run(plan: FaultPlan, **injector_options) -> FaultInjector:
    # No jitter control: a link outage voids the holding-time bound.
    network = tandem(LeaveInTime, trace=True)
    for index in range(6):
        add_onoff(network, add_session(network, f"s{index}"))
    injector = FaultInjector(plan, **injector_options).install(network)
    assert_run_leaves_no_cycles(network, 0.6)
    return injector


@pytest.mark.parametrize("policy", ["requeue", "drop_expired"])
def test_link_down_recovery(policy):
    injector = faulted_run(FaultPlan(link_downs=[
        LinkDown("n2", 0.1, 0.2, on_recovery=policy)]))
    state = injector.states["n2"]
    assert state.link_up
    assert bool(state.drops.get("expired")) == (policy == "drop_expired")


def test_crash_restart_aborts_transmission():
    injector = faulted_run(FaultPlan(node_restarts=[
        NodeRestart("n1", 0.1), NodeRestart("n2", 0.2)]))
    for name in ("n1", "n2"):
        assert injector.states[name].restarts == 1
        assert injector.states[name].drops["flush"]


def test_loss_and_corruption():
    injector = faulted_run(FaultPlan(
        losses=[PacketLoss("n1", 0.0, 0.5, 0.2)],
        corruptions=[PacketCorruption("n2", 0.0, 0.5, 0.2)]))
    assert injector.states["n1"].drops
    assert injector.states["n2"].drops


def test_session_outage_and_readmission():
    network = tandem(LeaveInTime, trace=True)
    controller = AdmissionController(
        network,
        lambda node: Procedure1(node.link.capacity,
                                [DelayClass(node.link.capacity, 0.05)]))
    for index in range(4):
        session = Session(f"s{index}", rate=1e5, route=ROUTE,
                          l_max=LENGTH)
        controller.admit(session, class_number=1)
        network.add_session(session, keep_samples=False)
        add_onoff(network, session)

    def session_factory(net, session_id):
        return Session(session_id, rate=1e5, route=ROUTE, l_max=LENGTH)

    injector = FaultInjector(
        FaultPlan(session_outages=[SessionOutage("s0", 0.1, 0.2),
                                   SessionOutage("s1", 0.15, 0.3)]),
        controller=controller,
        session_factory=session_factory,
        source_factory=lambda net, session: add_onoff(net, session).start(),
        admit_options={"class_number": 1},
    ).install(network)
    assert_run_leaves_no_cycles(network, 0.6)
    assert injector.re_admissions == 2


# ----------------------------------------------------------------------
# Tracer and sanitizer on
# ----------------------------------------------------------------------
def test_tracer_and_sanitizer():
    sanitizer = Sanitizer()
    network = tandem(LeaveInTime, trace=True, sanitizer=sanitizer)
    for index in range(6):
        add_onoff(network, add_session(network, f"s{index}",
                                       jitter_control=index % 2 == 0))
    assert_run_leaves_no_cycles(network, 0.5)
    assert sanitizer.report().clean
    assert network.tracer.records
