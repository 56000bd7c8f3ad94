"""Tests for dynamic session teardown."""

import pytest

from repro.errors import ConfigurationError
from repro.net.session import Session
from repro.net.sink import Sink
from repro.sched.leave_in_time import LeaveInTime
from repro.traffic.trace_source import TraceSource
from tests.conftest import add_trace_session, make_network


def drained_network():
    network = make_network(LeaveInTime, nodes=2, capacity=1000.0)
    session, sink, source = add_trace_session(
        network, "s", rate=100.0, times=[0.0, 0.1], lengths=100.0,
        route=["n1", "n2"])
    network.run(10.0)
    return network, session, sink


def test_remove_after_drain_clears_state():
    network, session, sink = drained_network()
    scheduler = network.node("n1").scheduler
    assert scheduler.session_state("s") is not None
    network.remove_session("s")
    assert "s" not in network.sessions
    with pytest.raises(KeyError):
        scheduler.session_state("s")
    assert "s" not in network.node("n1").buffer_bits
    # Sink survives by default for post-hoc analysis.
    assert network.sink("s").received == 2


def test_remove_discarding_sink():
    network, session, sink = drained_network()
    network.remove_session("s", keep_sink=False)
    with pytest.raises(KeyError):
        network.sink("s")


def test_remove_unknown_session_rejected():
    network = make_network(LeaveInTime)
    with pytest.raises(ConfigurationError):
        network.remove_session("ghost")


def test_remove_with_in_flight_packets_defers_cleanup():
    """Mid-flight removal drains, then forgets (drain-then-forget)."""
    network = make_network(LeaveInTime, capacity=1.0)
    add_trace_session(network, "s", rate=1.0, times=[0.0], lengths=10.0)
    network.run(5.0)  # still transmitting (10 s long)
    network.remove_session("s")
    # Gone from the routing table at once; node state lingers while
    # the packet is still on the link.
    assert "s" not in network.sessions
    assert network.reserved_rate("n1") == 0.0
    assert "s" in network._draining
    network.run(20.0)
    # Drained: packet delivered, per-node state cleared.
    assert network.sink("s").received == 1
    assert "s" not in network._draining
    assert "s" not in network.node("n1").buffer_bits
    with pytest.raises(KeyError):
        network.node("n1").scheduler.session_state("s")


def test_remove_mid_flight_discarding_sink():
    network = make_network(LeaveInTime, capacity=1.0)
    add_trace_session(network, "s", rate=1.0, times=[0.0], lengths=10.0)
    network.run(5.0)
    network.remove_session("s", keep_sink=False)
    # Sink must survive until the drain completes, then vanish.
    assert "s" in network.sinks
    network.run(20.0)
    assert "s" not in network.sinks
    assert "s" not in network._draining


def test_remove_while_packet_held_by_regulator():
    """Teardown while the regulator holds packets must not wedge them."""
    network = make_network(LeaveInTime, nodes=2, capacity=1000.0)
    # Jitter control maximizes downstream holding at n2.
    add_trace_session(network, "s", rate=10.0, times=[0.0, 0.01],
                      lengths=100.0, route=["n1", "n2"],
                      jitter_control=True)
    # Run just long enough for packets to reach n2's regulator.
    network.run(0.3)
    network.remove_session("s")
    network.run(60.0)
    assert network.sink("s").received == 2
    assert "s" not in network._draining
    scheduler = network.node("n2").scheduler
    with pytest.raises(KeyError):
        scheduler.session_state("s")


def test_inject_after_removal_rejected():
    """A source left running past removal fails loudly, not via KeyError."""
    from repro.errors import SimulationError
    network, session, sink = drained_network()
    network.remove_session("s", keep_sink=False)
    with pytest.raises(SimulationError, match="stop the source"):
        network.inject(session, 100.0)


def test_readd_while_draining_rejected():
    network = make_network(LeaveInTime, capacity=1.0)
    session, _, _ = add_trace_session(
        network, "s", rate=1.0, times=[0.0], lengths=10.0)
    network.run(5.0)
    network.remove_session("s")
    from repro.net.session import Session
    clone = Session("s", rate=1.0, route=["n1"], l_max=10.0)
    with pytest.raises(ConfigurationError):
        network.add_session(clone)


def test_forget_session_flushes_held_packets():
    """Direct forget_session releases regulator holds immediately."""
    network = make_network(LeaveInTime, nodes=2, capacity=1000.0)
    add_trace_session(network, "s", rate=10.0, times=[0.0, 0.01],
                      lengths=100.0, route=["n1", "n2"],
                      jitter_control=True)
    network.run(0.3)
    scheduler = network.node("n2").scheduler
    held_before = scheduler._held
    scheduler.forget_session("s")
    # Holds flushed: the counter drops to zero and packets are queued
    # as immediately eligible rather than stranded.
    assert scheduler._held == 0
    if held_before:
        network.run(60.0)
        assert network.sink("s").received == 2


def test_session_id_reusable_after_removal():
    network, session, sink = drained_network()
    network.remove_session("s", keep_sink=False)
    _, sink2, _ = add_trace_session(
        network, "s", rate=100.0, times=[], lengths=100.0,
        route=["n1", "n2"])
    assert network.sink("s") is sink2


def test_reserved_rate_drops_after_removal():
    network, session, sink = drained_network()
    assert network.reserved_rate("n1") == 100.0
    network.remove_session("s")
    assert network.reserved_rate("n1") == 0.0


def test_drain_accounting_survives_mid_flight_removal():
    """Per-node state lingers while draining and clears once drained."""
    network = make_network(LeaveInTime, capacity=1.0)
    add_trace_session(network, "s", rate=1.0, times=[0.0],
                      lengths=10.0)
    network.run(5.0)  # the 10 s packet is still on the wire
    network.remove_session("s")
    node = network.node("n1")
    assert node.buffer_bits["s"] == 10.0  # draining, not forgotten
    assert network._in_flight(network._draining["s"][0]) == 1
    network.run(20.0)
    assert network.sink("s").received == 1
    assert "s" not in network._draining
    assert "s" not in node.buffer_bits
    assert node.drop_count("s") == 0


def test_readded_session_starts_from_clean_state():
    """A re-added id gets fresh buffer, drop and deadline state."""
    network = make_network(LeaveInTime, nodes=2, capacity=1000.0)
    # Two 100-bit packets at t=0 against a 150-bit buffer: one drops.
    # The 10 b/s rate leaves K_i far in the future (t=20 s).
    add_trace_session(network, "a", rate=10.0, times=[0.0, 0.0, 0.2],
                      lengths=100.0, route=["n1", "n2"])
    add_trace_session(network, "b", rate=100.0, times=[0.05, 0.15],
                      lengths=100.0, route=["n1", "n2"])
    node = network.node("n1")
    node.set_buffer_limit("a", 150.0)
    network.run(5.0)
    assert node.drop_count("a") == 1
    assert node.scheduler.session_state("a").k_prev == 20.0
    network.remove_session("a")  # fully drained: finalized at once
    assert "a" not in node.buffer_bits
    _, sink_a, _ = add_trace_session(
        network, "a", rate=100.0, times=[0.0, 0.1], lengths=100.0,
        route=["n1", "n2"])
    assert node.buffer_bits["a"] == 0.0
    assert node.drop_count("a") == 0
    assert node.buffer_limits.get("a") is None
    state = node.scheduler.session_state("a")
    assert not state.initialized
    network.run(10.0)
    assert sink_a.received == 2
    assert node.buffer_bits["a"] == 0.0
    assert node.drop_count("a") == 0
    # The recursion restarted at the first arrival (t=5), not from the
    # old session's K_i = 20 s: K = 5 + 1, then max(5.1, 6) + 1.
    assert state.k_prev == pytest.approx(7.0)
    # b was untouched by a's teardown and re-admission.
    assert network.sink("b").received == 2
    assert node.drop_count("b") == 0


def test_remove_session_on_a_shared_sink_rejected():
    """A shared sink's counters cannot tell when one session drained."""
    network = make_network(LeaveInTime, capacity=1.0)
    shared = Sink("aggregate")
    sessions = {}
    for sid, times, length in (("a", [5.0], 10.0),
                               ("b", [0.0, 1.0, 2.0], 1.0)):
        session = Session(sid, rate=0.5, route=["n1"], l_max=length)
        network.add_session(session, sink=shared)
        TraceSource(network, session, times=times, lengths=length)
        sessions[sid] = session
    network.run(5.5)  # b delivered 3 packets; a's is on the wire
    assert shared.received == 3
    with pytest.raises(ConfigurationError, match="shares sink"):
        network.remove_session("a")
    # The refused removal changed nothing: a still delivers.
    assert "a" in network.sessions
    assert not network._draining
    network.run(20.0)
    assert shared.received == 4


class TestChurnFaultOverlap:
    """remove_session racing node pauses and restarts (drain-then-forget
    must neither wedge the drain nor leak per-node state)."""

    def _paused_network(self, pause_at, resume_at):
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan, NodePause
        network = make_network(LeaveInTime, nodes=2, capacity=1000.0)
        add_trace_session(network, "s", rate=100.0, times=[0.0, 0.1],
                          lengths=100.0, route=["n1", "n2"])
        plan = FaultPlan(node_pauses=(NodePause("n1", pause_at,
                                                resume_at),))
        FaultInjector(plan).install(network)
        return network

    def test_remove_while_paused_drains_after_resume(self):
        # Pause lands mid-first-transmission; removal happens while the
        # second packet is stuck behind the paused node.
        network = self._paused_network(0.05, 2.0)
        network.run(0.2)
        network.remove_session("s")
        assert "s" in network._draining
        network.run(5.0)
        assert network.sink("s").received == 2
        assert "s" not in network._draining
        assert "s" not in network.node("n1").buffer_bits
        with pytest.raises(KeyError):
            network.node("n1").scheduler.session_state("s")

    def test_pause_starting_mid_drain_only_defers_it(self):
        # Removal happens first (packet 2 queued behind the in-flight
        # transmission); the pause then begins before that transmission
        # completes, so the queued packet is stuck until resume.
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan, NodePause
        network = make_network(LeaveInTime, nodes=2, capacity=1000.0)
        add_trace_session(network, "s", rate=100.0, times=[0.0, 0.01],
                          lengths=100.0, route=["n1", "n2"])
        plan = FaultPlan(node_pauses=(NodePause("n1", 0.08, 2.0),))
        FaultInjector(plan).install(network)
        network.run(0.05)
        network.remove_session("s")
        network.run(1.0)         # pause holds the drain open
        assert "s" in network._draining
        network.run(5.0)
        assert network.sink("s").received == 2
        assert "s" not in network._draining

    def test_restart_mid_drain_finalizes_via_drops(self):
        # A crash-restart flushes the queue *and* aborts the in-flight
        # transmission; both land as drops, which must still count as
        # drain progress — the removal finalizes instead of wedging.
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan, NodeRestart
        network = make_network(LeaveInTime, nodes=2, capacity=1000.0)
        add_trace_session(network, "s", rate=100.0,
                          times=[0.0, 0.01, 0.02], lengths=100.0,
                          route=["n1", "n2"])
        plan = FaultPlan(node_restarts=(NodeRestart("n1", 0.05),))
        injector = FaultInjector(plan)
        injector.install(network)
        network.run(0.03)        # one tx in flight, two queued
        network.remove_session("s")
        assert "s" in network._draining
        network.run(5.0)
        assert "s" not in network._draining
        assert "s" not in network.node("n1").buffer_bits
        with pytest.raises(KeyError):
            network.node("n1").scheduler.session_state("s")
        drops = injector.states["n1"].drops.get("flush", {})
        assert drops.get("s", 0) >= 1


class TestForgetAcrossDisciplines:
    def _drain_and_remove(self, factory):
        network = make_network(factory, capacity=1000.0)
        add_trace_session(network, "s", rate=100.0, times=[0.0],
                          lengths=100.0)
        add_trace_session(network, "other", rate=100.0, times=[0.0],
                          lengths=100.0)
        network.run(10.0)
        network.remove_session("s")
        return network

    def test_wfq_forgets_drained_session(self):
        from repro.sched.wfq import WFQ
        network = self._drain_and_remove(WFQ)
        tracker = network.node("n1").scheduler._gps
        assert "s" not in tracker._last_finish
        assert "other" in tracker._last_finish

    def test_drr_forgets_drained_session(self):
        from repro.sched.drr import DeficitRoundRobin
        network = self._drain_and_remove(DeficitRoundRobin)
        scheduler = network.node("n1").scheduler
        assert "s" not in scheduler._queues
        assert "other" in scheduler._queues

    def test_hrr_forget_frees_bandwidth(self):
        from repro.sched.hrr import HierarchicalRoundRobin
        network = self._drain_and_remove(
            lambda: HierarchicalRoundRobin(frame=1.0))
        scheduler = network.node("n1").scheduler
        assert "s" not in scheduler._queues
        # Bandwidth share released (two sessions of l_max quota = 100
        # bits per 1 s frame each; one remains).
        assert scheduler._reserved == 100.0

    def test_scfq_and_rcsp_forget(self):
        from repro.sched.scfq import SCFQ
        network = self._drain_and_remove(SCFQ)
        assert "s" not in network.node("n1").scheduler._last_finish

        from repro.sched.rcsp import RCSP
        network = self._drain_and_remove(lambda: RCSP([1.0]))
        assert "s" not in network.node("n1").scheduler._last_eligible
