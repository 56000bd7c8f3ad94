"""Unit tests for the Leave-in-Time scheduler.

The recursion tests check packet deadlines against hand-evaluated
instances of the paper's equations (10)-(11); the regulator tests check
eligibility times and holding times against eq. (6)-(9) on a two-node
tandem worked out by hand in the comments.
"""

import pytest

from repro.net.session import Session
from repro.sched.leave_in_time import LeaveInTime
from repro.sched.policy import constant_policy
from repro.traffic.trace_source import TraceSource
from tests.conftest import add_trace_session, make_network


class TestDeadlineRecursion:
    def test_virtual_clock_mode_deadlines(self):
        # d = L/r (default policy). C=1000, r=100, L=100:
        # F1 = max(0, K0=0) + 1 = 1;   K1 = 1
        # F2 = max(0.05, 1) + 1 = 2;   K2 = 2
        # F3 = max(0.5, 2) + 1 = 3
        network = make_network(LeaveInTime, capacity=1000.0)
        _, sink, _ = add_trace_session(
            network, "s", rate=100.0, times=[0.0, 0.05, 0.5],
            lengths=100.0)
        network.run(10.0)
        assert [p.deadline for p in sink.packets] == pytest.approx(
            [1.0, 2.0, 3.0])

    def test_idle_period_resets_recursion(self):
        # After the backlog clears, F restarts from the arrival time.
        network = make_network(LeaveInTime, capacity=1000.0)
        _, sink, _ = add_trace_session(
            network, "s", rate=100.0, times=[0.0, 5.0], lengths=100.0)
        network.run(10.0)
        assert [p.deadline for p in sink.packets] == pytest.approx(
            [1.0, 6.0])

    def test_k_runs_at_rate_while_f_uses_policy(self):
        # Constant policy d = 0.2 decouples F from K (the second
        # generalization): F_i = max(E_i, K_{i-1}) + 0.2 while K still
        # advances by L/r = 1.
        network = make_network(LeaveInTime, capacity=1000.0)
        session = Session("s", rate=100.0, route=["n1"], l_max=100.0)
        session.set_policy("n1", constant_policy(0.2, l_max=100.0))
        sink = network.add_session(session, keep_packets=True)
        TraceSource(network, session, times=[0.0, 0.0, 0.0],
                    lengths=100.0)
        network.run(10.0)
        assert [p.deadline for p in sink.packets] == pytest.approx(
            [0.2, 1.2, 2.2])

    def test_variable_length_packets(self):
        # F/K recursions with L = 50 then 200 (r = 100):
        # F1 = 0 + 0.5 = 0.5; K1 = 0.5
        # F2 = max(0, 0.5) + 2 = 2.5; K2 = 2.5
        network = make_network(LeaveInTime, capacity=1000.0)
        _, sink, _ = add_trace_session(
            network, "s", rate=100.0, times=[0.0, 0.0],
            lengths=[50.0, 200.0])
        network.run(10.0)
        assert [p.deadline for p in sink.packets] == pytest.approx(
            [0.5, 2.5])

    def test_deadline_order_across_sessions(self):
        # While the link is busy with a filler packet, a slow and a
        # fast session each queue one packet; the fast session's packet
        # has the earlier deadline and must transmit first even though
        # the slow one arrived first.
        network = make_network(LeaveInTime, capacity=1000.0, trace=True)
        add_trace_session(network, "filler", rate=500.0, times=[0.0],
                          lengths=100.0)
        add_trace_session(network, "slow", rate=100.0, times=[0.01],
                          lengths=100.0)
        add_trace_session(network, "fast", rate=1000.0, times=[0.02],
                          lengths=100.0)
        network.run(10.0)
        starts = [r.session for r in
                  network.tracer.filter("tx_start", node="n1")]
        assert starts == ["filler", "fast", "slow"]

    def test_work_conserving_without_jitter_control(self):
        # A lone packet goes out immediately regardless of deadline.
        network = make_network(LeaveInTime, capacity=1000.0)
        _, sink, _ = add_trace_session(
            network, "s", rate=1.0, times=[0.0], lengths=100.0)
        network.run(200.0)
        # Delay is just the transmission time, not L/r = 100 s.
        assert sink.max_delay == pytest.approx(0.1)


class TestRegulators:
    def build_tandem(self, *, propagation=0.0):
        network = make_network(LeaveInTime, nodes=2, capacity=1000.0,
                               propagation=propagation, trace=True)
        session, sink, _ = add_trace_session(
            network, "s", rate=100.0, times=[0.0, 0.0],
            lengths=100.0, route=["n1", "n2"], jitter_control=True)
        return network, session, sink

    def test_holding_time_hand_computed(self):
        # Packet 1 at n1: F=1.0, transmitted [0, 0.1], F̂=0.1.
        # A = F + L_MAX/C − F̂ + d_max − d_i = 1 + 0.1 − 0.1 + 0 = 1.0.
        # Packet 2 at n1: F=2.0, transmitted [0.1, 0.2], F̂=0.2.
        # A = 2 + 0.1 − 0.2 = 1.9.
        network, _, sink = self.build_tandem()
        network.run(10.0)
        eligibles = {(r.session, r.packet): r.detail["eligible"]
                     for r in network.tracer.filter("deadline", node="n2")}
        assert eligibles[("s", 1)] == pytest.approx(0.1 + 1.0)
        assert eligibles[("s", 2)] == pytest.approx(0.2 + 1.9)

    def test_regulated_delays(self):
        # Continuing the hand computation: n2 deadlines are 2.1 and 3.1;
        # transmissions run [1.1, 1.2] and [2.1, 2.2].
        network, _, sink = self.build_tandem()
        network.run(10.0)
        assert sink.samples.values == pytest.approx([1.2, 2.2])

    def test_first_node_never_holds(self):
        # Eq. 8: A = 0 at node 1 — eligibility equals arrival there.
        network, _, _ = self.build_tandem()
        network.run(10.0)
        for record in network.tracer.filter("deadline", node="n1"):
            assert record.detail["eligible"] == pytest.approx(record.time)

    def test_holding_times_non_negative(self):
        network = make_network(LeaveInTime, nodes=3, capacity=1000.0)
        _, sink, _ = add_trace_session(
            network, "s", rate=100.0,
            times=[0.0, 0.1, 0.2, 0.9, 1.0, 3.0], lengths=100.0,
            route=["n1", "n2", "n3"], jitter_control=True)
        network.run(60.0)
        assert sink.received == 6  # none stuck, none rejected

    def test_no_jitter_control_means_no_holding(self):
        network = make_network(LeaveInTime, nodes=2, capacity=1000.0,
                               trace=True)
        _, sink, _ = add_trace_session(
            network, "s", rate=100.0, times=[0.0, 0.0], lengths=100.0,
            route=["n1", "n2"], jitter_control=False)
        network.run(10.0)
        for record in network.tracer.filter("deadline", node="n2"):
            assert record.detail["eligible"] == pytest.approx(record.time)

    def test_backlog_counts_held_packets(self):
        network, _, _ = self.build_tandem()
        network.run(0.3)  # packets have arrived at n2 but are held
        scheduler = network.node("n2").scheduler
        assert scheduler.held >= 1
        assert scheduler.backlog >= scheduler.held

    def test_regulator_map_allocated_on_first_hold_only(self):
        # Node 1 never holds (eq. 8), so its state keeps no hold map;
        # node 2's map appears with the first hold and empties on
        # release.
        network, _, _ = self.build_tandem()
        network.run(0.3)
        first = network.node("n1").scheduler.session_state("s")
        second = network.node("n2").scheduler.session_state("s")
        assert first.pending is None
        assert second.pending
        network.run(10.0)
        assert first.pending is None
        assert second.pending == {}


class TestSaturationInvariant:
    def test_lateness_below_one_packet_time(self):
        # With admission-controlled (here: default d = L/r, rates
        # summing below C) sessions, F̂ < F + L_MAX/C at every node.
        network = make_network(LeaveInTime, capacity=1000.0)
        for index, rate in enumerate((100.0, 200.0, 300.0)):
            add_trace_session(
                network, f"s{index}", rate=rate,
                times=[0.01 * i for i in range(50)], lengths=100.0)
        network.run(60.0)
        lateness = network.node("n1").scheduler.lateness
        assert lateness.maximum < 100.0 / 1000.0
