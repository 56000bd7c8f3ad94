"""Differential test: the admission procedures against a reference.

The reference below is the straightforward form of the paper's tests:
it keeps one record per admitted session and, for every test, sums
over the records of classes 1..m in admission order, left to right
from 0. The procedures keep per-class maps of the summed floats
instead. Random admit / release / re-admit sequences with fractional
rates, packet lengths and capacities run through an
:class:`AdmissionController` on three nodes, so a rejection at any hop
rolls back the hops before it. After every step the two must agree
exactly: the same decision, rule and rejecting node, and sums equal
with ``==``, not approximately.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admission.base import RATE_EPSILON
from repro.admission.classes import DelayClass
from repro.admission.controller import AdmissionController
from repro.admission.procedure1 import Procedure1
from repro.admission.procedure2 import Procedure2
from repro.admission.procedure3 import Procedure3, subsets_feasible
from repro.errors import AdmissionError, ConfigurationError
from repro.net.network import Network
from repro.net.session import Session
from repro.sched.leave_in_time import LeaveInTime

CAPACITIES = {"n1": 1000.0, "n2": 1234.5, "n3": 777.25}
ROUTES = [["n1"], ["n2"], ["n3"], ["n1", "n2"], ["n2", "n3"],
          ["n3", "n1"], ["n1", "n2", "n3"]]
EXHAUSTIVE_LIMIT = 4


def classes_for(capacity):
    return [DelayClass(0.25 * capacity, 0.3),
            DelayClass(0.6 * capacity, 0.7),
            DelayClass(capacity, 1.5)]


def build_network():
    network = Network(seed=0)
    for name, capacity in CAPACITIES.items():
        network.add_node(name, LeaveInTime(), capacity=capacity)
    return network


class ReferenceClasses:
    """Procedures 1 (``sigma_through_p=False``) and 2, by records."""

    def __init__(self, capacity, classes, sigma_through_p):
        self.capacity = capacity
        self.classes = classes
        self.sigma_through_p = sigma_through_p
        self.records = {}   # session id -> (rate, l_max)
        self.members = [[] for _ in range(len(classes) + 1)]

    @property
    def reserved_rate(self):
        return sum(rate for rate, _ in self.records.values())

    def upto(self, m):
        return [self.records[session_id]
                for class_number in range(1, m + 1)
                for session_id in self.members[class_number]]

    def rate_upto(self, m):
        return sum(rate for rate, _ in self.upto(m))

    def load_upto(self, m):
        return sum(l_max / self.capacity for _, l_max in self.upto(m))

    def admit(self, session_id, rate, l_max, options):
        if session_id in self.records:
            raise AdmissionError("duplicate", rule="duplicate")
        class_number = options["class_number"]
        count = len(self.classes)
        if self.reserved_rate + rate > self.capacity + RATE_EPSILON:
            raise AdmissionError("eq-18", rule="eq-18")
        for m in range(class_number, count + 1):
            if (self.rate_upto(m) + rate
                    > self.classes[m - 1].limit_rate + RATE_EPSILON):
                raise AdmissionError("1.1", rule="1.1")
        last = count if self.sigma_through_p else count - 1
        for m in range(class_number, last + 1):
            if (self.load_upto(m) + l_max / self.capacity
                    > self.classes[m - 1].base_delay + 1e-12):
                raise AdmissionError(
                    "sigma", rule="2.2" if self.sigma_through_p else "1.2")
        if options.get("epsilon", 0.0) < 0:
            raise ConfigurationError("epsilon")
        self.records[session_id] = (rate, l_max)
        self.members[class_number].append(session_id)

    def release(self, session_id):
        self.records.pop(session_id, None)
        for members in self.members:
            if session_id in members:
                members.remove(session_id)


class ReferenceProcedure3:
    """Procedure 3 by records: ``(rate, l_max, d)`` in admission order."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.records = {}

    @property
    def reserved_rate(self):
        return sum(rate for rate, _, _ in self.records.values())

    def admit(self, session_id, rate, l_max, options):
        if session_id in self.records:
            raise AdmissionError("duplicate", rule="duplicate")
        d = options["d"]
        if self.reserved_rate + rate > self.capacity + RATE_EPSILON:
            raise AdmissionError("eq-18", rule="eq-18")
        entries = list(self.records.values()) + [(rate, l_max, float(d))]
        if len(entries) <= EXHAUSTIVE_LIMIT:
            if not subsets_feasible(entries, self.capacity):
                raise AdmissionError("eq-19", rule="eq-19")
        else:
            total_l = sum(entry[1] for entry in entries)
            if (min(entry[2] for entry in entries)
                    < total_l / self.capacity - 1e-12):
                raise AdmissionError("sufficient",
                                     rule="eq-19-sufficient")
        self.records[session_id] = (rate, l_max, float(d))

    def release(self, session_id):
        self.records.pop(session_id, None)


class ReferenceController:
    """Transactional route admission over reference procedures."""

    def __init__(self, procedures):
        self.procedures = procedures
        self.routes = {}

    def admit(self, session, options):
        """Returns ``None`` on success, else ``(error type, rule, node)``."""
        granted = []
        for node_name in session.route:
            try:
                self.procedures[node_name].admit(
                    session.id, session.rate, session.l_max, options)
            except (AdmissionError, ConfigurationError) as error:
                for granted_name in granted:
                    self.procedures[granted_name].release(session.id)
                if isinstance(error, AdmissionError):
                    return (AdmissionError, error.rule, node_name)
                return (ConfigurationError, None, None)
            granted.append(node_name)
        self.routes[session.id] = list(session.route)
        return None

    def release(self, session_id):
        for node_name in self.routes.pop(session_id, ()):
            self.procedures[node_name].release(session_id)


def outcome_of(call, *args, **options):
    try:
        call(*args, **options)
    except AdmissionError as error:
        return (AdmissionError, error.rule, error.node)
    except ConfigurationError:
        return (ConfigurationError, None, None)
    return None


rates = st.floats(min_value=1.0, max_value=600.0)
lengths = st.floats(min_value=1.0, max_value=300.0)
slots = st.integers(min_value=0, max_value=9)
routes = st.sampled_from(ROUTES)

class_ops = st.lists(
    st.tuples(st.sampled_from(["admit", "admit", "release", "readmit",
                               "bad-epsilon"]),
              slots, routes, st.integers(min_value=1, max_value=3),
              rates, lengths),
    min_size=1, max_size=40)

delay_ops = st.lists(
    st.tuples(st.sampled_from(["admit", "admit", "release", "readmit"]),
              slots, routes, st.floats(min_value=0.01, max_value=1.0),
              rates, lengths),
    min_size=1, max_size=30)


def run_differential(controller, reference, ops, options_of, compare):
    sessions = {}
    for action, slot, route, option, rate, l_max in ops:
        session_id = f"s{slot}"
        if action == "release":
            session = sessions.get(session_id)
            if session is not None:
                controller.release(session)
                reference.release(session_id)
        else:
            live = session_id in reference.routes
            if live and action != "readmit":
                # A second admit of a live session: duplicate at hop 1.
                session = sessions[session_id]
            else:
                session = Session(session_id, rate=rate, route=route,
                                  l_max=l_max)
            options = options_of(option, action)
            if action == "readmit":
                reference.release(session_id)
                got = outcome_of(controller.readmit, session, **options)
            else:
                got = outcome_of(controller.admit, session, **options)
            expected = reference.admit(session, options)
            assert got == expected
            if expected is None:
                sessions[session_id] = session
        for node_name, procedure in controller.procedures.items():
            compare(procedure, reference.procedures[node_name])


def compare_classes(procedure, reference):
    assert procedure.admitted_count == len(reference.records)
    assert procedure.reserved_rate == reference.reserved_rate
    for m in range(1, 4):
        assert procedure.rate_in_classes_upto(m) == reference.rate_upto(m)
        assert (procedure.transmission_load_upto(m)
                == reference.load_upto(m))


def class_options(class_number, action):
    if action == "bad-epsilon":
        return {"class_number": class_number, "epsilon": -1.0}
    return {"class_number": class_number}


@settings(max_examples=200, deadline=None)
@given(ops=class_ops)
def test_procedure1_matches_reference_sums(ops):
    controller = AdmissionController(
        build_network(),
        lambda node: Procedure1(node.link.capacity,
                                classes_for(node.link.capacity)))
    reference = ReferenceController({
        name: ReferenceClasses(capacity, classes_for(capacity), False)
        for name, capacity in CAPACITIES.items()})
    run_differential(controller, reference, ops, class_options,
                     compare_classes)


@settings(max_examples=200, deadline=None)
@given(ops=class_ops)
def test_procedure2_matches_reference_sums(ops):
    controller = AdmissionController(
        build_network(),
        lambda node: Procedure2(node.link.capacity,
                                classes_for(node.link.capacity)))
    reference = ReferenceController({
        name: ReferenceClasses(capacity, classes_for(capacity), True)
        for name, capacity in CAPACITIES.items()})
    run_differential(controller, reference, ops, class_options,
                     compare_classes)


def compare_delays(procedure, reference):
    assert procedure.admitted_count == len(reference.records)
    assert procedure.reserved_rate == reference.reserved_rate
    for session_id, (_, _, d) in reference.records.items():
        assert procedure.delay_of(session_id) == d


@settings(max_examples=150, deadline=None)
@given(ops=delay_ops)
def test_procedure3_matches_reference_sums(ops):
    controller = AdmissionController(
        build_network(),
        lambda node: Procedure3(node.link.capacity,
                                exhaustive_limit=EXHAUSTIVE_LIMIT))
    reference = ReferenceController({
        name: ReferenceProcedure3(capacity)
        for name, capacity in CAPACITIES.items()})
    run_differential(controller, reference, ops,
                     lambda d, action: {"d": d}, compare_delays)
