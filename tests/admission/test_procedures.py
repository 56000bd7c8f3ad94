"""Unit tests for admission control procedures 1, 2, and 3.

The numeric expectations in TestPaperExamples are the paper's own
worked examples (Section 2), reproduced digit for digit.
"""

import pytest

from repro.admission.classes import DelayClass
from repro.admission.procedure1 import Procedure1
from repro.admission.procedure2 import Procedure2
from repro.admission.procedure3 import Procedure3, subsets_feasible
from repro.errors import AdmissionError, ConfigurationError
from repro.net.session import Session
from repro.units import Mbps, kbps, ms

#: The paper's three-class example menu: C = 100 Mbit/s.
PAPER_CLASSES = [DelayClass(Mbps(10), ms(0.2)),
                 DelayClass(Mbps(40), ms(1.6)),
                 DelayClass(Mbps(100), ms(4))]
PAPER_C = Mbps(100)


def session(session_id="s", rate=kbps(100), l_max=400.0):
    return Session(session_id, rate=rate, route=["n1"], l_max=l_max)


class TestPaperExamples:
    @pytest.mark.parametrize("class_number,expected_ms",
                             [(1, 0.4), (2, 1.8), (3, 5.6)])
    def test_procedure1_100kbps_session(self, class_number, expected_ms):
        procedure = Procedure1(PAPER_C, PAPER_CLASSES)
        policy = procedure.admit(session(), class_number=class_number)
        assert policy.d_of(400.0) * 1e3 == pytest.approx(expected_ms)

    @pytest.mark.parametrize("class_number,expected_ms",
                             [(1, 0.2), (2, 2.0), (3, 5.6)])
    def test_procedure2_100kbps_session(self, class_number, expected_ms):
        procedure = Procedure2(PAPER_C, PAPER_CLASSES)
        policy = procedure.admit(session(), class_number=class_number)
        assert policy.d_of(400.0) * 1e3 == pytest.approx(expected_ms)

    def test_low_rate_session_contrast(self):
        # 10 kbit/s session in class 1: 4 ms under procedure 1 versus
        # 0.2 ms under procedure 2 — the paper's headline difference.
        low = session(rate=kbps(10))
        p1 = Procedure1(PAPER_C, PAPER_CLASSES).admit(low, class_number=1)
        assert p1.d_of(400.0) * 1e3 == pytest.approx(4.0)
        low2 = session(rate=kbps(10))
        p2 = Procedure2(PAPER_C, PAPER_CLASSES).admit(low2,
                                                      class_number=1)
        assert p2.d_of(400.0) * 1e3 == pytest.approx(0.2)

    def test_figures_14_17_class_parameters(self):
        # (640 kbit/s, 2.77 ms), (1536 kbit/s, 13.25 ms) on a T1 link:
        # d = 2.77 ms in class 1 and ~18.8 ms in class 2.
        classes = [DelayClass(kbps(640), ms(2.77)),
                   DelayClass(kbps(1536), ms(13.25))]
        procedure = Procedure2(kbps(1536), classes)
        voice = Session("v", rate=kbps(32), route=["n1"], l_max=424.0)
        d1 = procedure.admit(voice, class_number=1).d_of(424.0)
        assert d1 * 1e3 == pytest.approx(2.77)
        voice2 = Session("w", rate=kbps(32), route=["n1"], l_max=424.0)
        d2 = procedure.admit(voice2, class_number=2).d_of(424.0)
        assert d2 * 1e3 == pytest.approx(18.77, abs=0.01)


class TestProcedure1Rules:
    def test_rule_13a_is_length_independent(self):
        procedure = Procedure1(PAPER_C, PAPER_CLASSES)
        policy = procedure.admit(session(), class_number=1,
                                 per_packet=False)
        assert policy.d_of(1.0) == policy.d_of(400.0)
        assert policy.d_of(400.0) * 1e3 == pytest.approx(0.4)

    def test_epsilon_adds_constant(self):
        procedure = Procedure1(PAPER_C, PAPER_CLASSES)
        policy = procedure.admit(session(), class_number=1,
                                 epsilon=ms(1))
        assert policy.d_of(400.0) * 1e3 == pytest.approx(1.4)

    def test_negative_epsilon_rejected(self):
        procedure = Procedure1(PAPER_C, PAPER_CLASSES)
        with pytest.raises(ConfigurationError):
            procedure.admit(session(), class_number=1, epsilon=-1e-3)

    @pytest.mark.parametrize("procedure_class", [Procedure1, Procedure2])
    def test_negative_epsilon_reserves_nothing(self, procedure_class):
        # The policy is built before the session is recorded, so a bad
        # option leaves no reservation behind.
        procedure = procedure_class(1000.0, [DelayClass(1000.0, 0.01)])
        with pytest.raises(ConfigurationError):
            procedure.admit(
                Session("s", rate=100.0, route=["n1"], l_max=10.0),
                epsilon=-1.0)
        assert not procedure.is_admitted("s")
        assert procedure.admitted_count == 0
        assert procedure.reserved_rate == 0
        assert procedure.rate_in_classes_upto(1) == 0
        assert procedure.transmission_load_upto(1) == 0
        # The same session is admissible afterwards.
        procedure.admit(Session("s", rate=1000.0, route=["n1"], l_max=10.0))
        assert procedure.reserved_rate == 1000.0

    def test_rate_cap_rule_11(self):
        procedure = Procedure1(PAPER_C, PAPER_CLASSES)
        procedure.admit(session("a", rate=Mbps(9)), class_number=1)
        with pytest.raises(AdmissionError) as err:
            procedure.admit(session("b", rate=Mbps(2)), class_number=1)
        assert err.value.rule == "1.1"

    def test_rate_cap_counts_lower_classes(self):
        # Rule 1.1 at m=2 includes class-1 sessions.
        procedure = Procedure1(PAPER_C, PAPER_CLASSES)
        procedure.admit(session("a", rate=Mbps(10)), class_number=1)
        procedure.admit(session("b", rate=Mbps(29)), class_number=2)
        with pytest.raises(AdmissionError):
            procedure.admit(session("c", rate=Mbps(2)), class_number=2)

    def test_sigma_budget_rule_12(self):
        # sigma_1 = 0.2 ms fits 50 packets of 400 bits at 100 Mbit/s.
        procedure = Procedure1(PAPER_C, PAPER_CLASSES)
        for index in range(50):
            procedure.admit(session(f"s{index}", rate=kbps(1)),
                            class_number=1)
        with pytest.raises(AdmissionError) as err:
            procedure.admit(session("one-too-many", rate=kbps(1)),
                            class_number=1)
        assert err.value.rule == "1.2"

    def test_sigma_p_is_irrelevant_in_procedure1(self):
        # Rule 1.2 skips class P, so even sigma_P = 0 admits into P
        # (bandwidth permitting).
        classes = [DelayClass(Mbps(10), 0.0), DelayClass(PAPER_C, 0.0)]
        procedure = Procedure1(PAPER_C, classes)
        for index in range(100):
            procedure.admit(session(f"s{index}", rate=kbps(1)),
                            class_number=2)

    def test_full_bandwidth_exploitable(self):
        procedure = Procedure1(PAPER_C, PAPER_CLASSES)
        procedure.admit(session("big", rate=PAPER_C), class_number=3)
        assert procedure.reserved_rate == PAPER_C

    def test_eq18_rejects_overbooking(self):
        procedure = Procedure1(PAPER_C, PAPER_CLASSES)
        procedure.admit(session("big", rate=PAPER_C), class_number=3)
        with pytest.raises(AdmissionError):
            procedure.admit(session("more", rate=kbps(1)),
                            class_number=3)

    def test_duplicate_admission_rejected(self):
        procedure = Procedure1(PAPER_C, PAPER_CLASSES)
        s = session()
        procedure.admit(s, class_number=1)
        with pytest.raises(AdmissionError):
            procedure.admit(s, class_number=2)

    def test_release_frees_capacity(self):
        procedure = Procedure1(PAPER_C, PAPER_CLASSES)
        procedure.admit(session("a", rate=Mbps(10)), class_number=1)
        with pytest.raises(AdmissionError):
            procedure.admit(session("b", rate=Mbps(1)), class_number=1)
        procedure.release("a")
        procedure.admit(session("b", rate=Mbps(1)), class_number=1)

    def test_invalid_class_number(self):
        procedure = Procedure1(PAPER_C, PAPER_CLASSES)
        with pytest.raises(ConfigurationError):
            procedure.admit(session(), class_number=0)
        with pytest.raises(ConfigurationError):
            procedure.admit(session(), class_number=4)

    def test_failed_admission_leaves_state_unchanged(self):
        procedure = Procedure1(PAPER_C, PAPER_CLASSES)
        with pytest.raises(AdmissionError):
            procedure.admit(session(rate=Mbps(11)), class_number=1)
        assert procedure.admitted_count == 0
        assert procedure.reserved_rate == 0.0


class TestProcedure2Rules:
    def test_sigma_test_includes_class_p(self):
        # With sigma_P too small, even class-P admission fails — the
        # cost of procedure 2 the paper highlights.
        classes = [DelayClass(Mbps(10), ms(0.2)),
                   DelayClass(PAPER_C, ms(0.2))]
        procedure = Procedure2(PAPER_C, classes)
        for index in range(50):
            procedure.admit(session(f"s{index}", rate=kbps(1)),
                            class_number=2)
        with pytest.raises(AdmissionError) as err:
            procedure.admit(session("x", rate=kbps(1)), class_number=2)
        assert err.value.rule == "2.2"

    def test_class1_d_independent_of_rate(self):
        procedure = Procedure2(PAPER_C, PAPER_CLASSES)
        fast = procedure.admit(session("fast", rate=Mbps(5)),
                               class_number=1)
        slow = procedure.admit(session("slow", rate=kbps(1)),
                               class_number=1)
        assert fast.d_of(400.0) == slow.d_of(400.0) == pytest.approx(
            ms(0.2))

    def test_rule_23a_constant(self):
        procedure = Procedure2(PAPER_C, PAPER_CLASSES)
        policy = procedure.admit(session(), class_number=2,
                                 per_packet=False)
        assert policy.d_of(1.0) == policy.d_of(400.0) == pytest.approx(
            ms(2.0))


class TestProcedure3:
    def test_subset_test_exact(self):
        # Two sessions each needing half the link with d exactly at the
        # feasibility boundary.
        entries = [(500.0, 100.0, 0.2), (500.0, 100.0, 0.2)]
        assert subsets_feasible(entries, capacity=1000.0)
        entries = [(500.0, 100.0, 0.09), (500.0, 100.0, 0.09)]
        assert not subsets_feasible(entries, capacity=1000.0)

    def test_singleton_subset_governs_small_d(self):
        # A single session: C >= L*r/(r*d) = L/d, so d >= L/C.
        assert subsets_feasible([(1.0, 100.0, 0.1)], capacity=1000.0)
        assert not subsets_feasible([(1.0, 100.0, 0.09)],
                                    capacity=1000.0)

    def test_admit_and_policy(self):
        procedure = Procedure3(1000.0)
        policy = procedure.admit(
            Session("a", rate=500.0, route=["n1"], l_max=100.0), d=0.5)
        assert policy.d_of(100.0) == 0.5
        assert procedure.delay_of("a") == 0.5

    def test_incompatible_d_rejected(self):
        procedure = Procedure3(1000.0)
        procedure.admit(
            Session("a", rate=500.0, route=["n1"], l_max=100.0), d=0.11)
        with pytest.raises(AdmissionError):
            # Pair subset: (200 bits * 1000 bps)/(sum r*d) > C.
            procedure.admit(
                Session("b", rate=500.0, route=["n1"], l_max=100.0),
                d=0.05)

    def test_flexibility_may_strand_bandwidth(self):
        # The paper: procedure 3 may leave bandwidth uncommitted. A
        # tiny-d session passes alone but blocks a full-rate companion
        # even though rates sum below C.
        procedure = Procedure3(1000.0)
        procedure.admit(
            Session("tiny", rate=100.0, route=["n1"], l_max=100.0),
            d=0.1)
        with pytest.raises(AdmissionError):
            procedure.admit(
                Session("big", rate=900.0, route=["n1"], l_max=100.0),
                d=0.1001)

    def test_equivalence_with_procedure2_one_class(self):
        # ACP2, one class, epsilon 0 == ACP3 with equal d = sigma_1.
        capacity = 1000.0
        sigma = 0.3
        classes = [DelayClass(capacity, sigma)]
        p2 = Procedure2(capacity, classes)
        p3 = Procedure3(capacity)
        for index in range(3):
            s2 = Session(f"s{index}", rate=200.0, route=["n1"],
                         l_max=100.0)
            s3 = Session(f"s{index}", rate=200.0, route=["n1"],
                         l_max=100.0)
            policy2 = p2.admit(s2, class_number=1)
            policy3 = p3.admit(s3, d=sigma)
            assert policy2.d_of(100.0) == pytest.approx(
                policy3.d_of(100.0))

    def test_conservative_fallback_beyond_limit(self):
        procedure = Procedure3(1e6, exhaustive_limit=2)
        for index in range(3):
            procedure.admit(
                Session(f"s{index}", rate=1000.0, route=["n1"],
                        l_max=100.0), d=0.01)
        assert procedure.last_check_was_conservative is True

    def test_conservative_fallback_still_rejects_unsafe(self):
        procedure = Procedure3(1000.0, exhaustive_limit=1)
        procedure.admit(
            Session("a", rate=100.0, route=["n1"], l_max=100.0), d=1.0)
        with pytest.raises(AdmissionError):
            # min d < total L/C = 0.3 would be unsafe under the
            # sufficient condition.
            procedure.admit(
                Session("b", rate=100.0, route=["n1"], l_max=200.0),
                d=0.1)

    def test_rejects_non_positive_d(self):
        procedure = Procedure3(1000.0)
        with pytest.raises(ConfigurationError):
            procedure.admit(
                Session("a", rate=1.0, route=["n1"], l_max=1.0), d=0.0)
