"""The four interprocedural rules of the verify analyzer.

Each rule consumes the assembled :class:`~repro.analysis.verify.model.
Program` rather than a single file, so it can answer questions lint's
per-file walks could not: *does this loop body reach the event queue
three calls deep?*, *is that module constant a rate?*, *does every
caller of this admission helper also release?*

Rules reuse the lint layer's :class:`~repro.analysis.lint.core.
Violation` type and per-line ``# repro: disable=`` suppressions, so one
reporting/suppression vocabulary covers both analyzers.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple, Type

from repro.analysis.lint.core import Violation
from repro.analysis.verify.model import (
    RESERVE_NAMES,
    Program,
    dim_name,
)

__all__ = [
    "ProgramRule",
    "register",
    "registered_rules",
    "NondeterministicIteration",
    "DimensionMismatch",
    "UntiebrokenEventTransitive",
    "UnreleasedReservation",
]


class ProgramRule:
    """One whole-program invariant.  Subclasses set ``id``/``description``."""

    #: Stable identifier used in reports and suppression comments.
    id: str = ""
    #: One-line summary shown by ``--list-rules`` and the docs.
    description: str = ""

    def check(self, program: Program) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, summary: Dict[str, Any], lineno: int, col: int,
                  message: str) -> Violation:
        return Violation(path=summary["path"], line=lineno, col=col,
                         rule=self.id, message=message)


_REGISTRY: Dict[str, Type[ProgramRule]] = {}


def register(rule_class: Type[ProgramRule]) -> Type[ProgramRule]:
    if not rule_class.id:
        raise ValueError(f"rule {rule_class.__name__} has no id")
    if rule_class.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.id!r}")
    _REGISTRY[rule_class.id] = rule_class
    return rule_class


def registered_rules() -> Dict[str, Type[ProgramRule]]:
    return dict(_REGISTRY)


def _iter_functions(program: Program) -> Iterator[
        Tuple[str, Dict[str, Any], Dict[str, Any]]]:
    for key, (summary, function) in sorted(program.functions.items()):
        yield key, summary, function


@register
class NondeterministicIteration(ProgramRule):
    """Set/dict iteration whose body (transitively) schedules events.

    Python sets hash-order their elements, so any loop over a ``set``
    (or a dict whose population order is not itself deterministic) that
    ends up calling ``Simulator.schedule*`` / queue ``push`` bakes an
    arbitrary order into the event heap's FIFO tie-break — runs stop
    being reproducible across interpreters and ``PYTHONHASHSEED``
    values.  Iterate ``sorted(...)`` or an explicitly ordered list.
    """

    id = "nondeterministic-iteration"
    description = ("set/dict iteration whose loop body transitively "
                   "reaches the event queue")

    def check(self, program: Program) -> Iterator[Violation]:
        for _key, summary, function in _iter_functions(program):
            module = summary["module"]
            for loop in function["loops"]:
                kind = loop["kind"] or program.attr_kind(loop.get("attr"))
                if kind not in ("set", "dict"):
                    continue
                schedules = loop["body_schedules"] or any(
                    program.call_reaches_sink(module, call)
                    for call in loop["body_calls"])
                if not schedules:
                    continue
                yield self.violation(
                    summary, loop["lineno"], loop["col"],
                    f"iterating a {kind} ({loop['desc']!r}) in "
                    f"{function['qualname']} whose body reaches the "
                    f"event queue; iteration order will leak into "
                    f"dispatch order — iterate sorted(...) or keep an "
                    f"ordered list")


@register
class DimensionMismatch(ProgramRule):
    """Arithmetic or comparison mixing incompatible physical dimensions.

    Everything in this codebase is SI floats: seconds, bits, bits per
    second.  Adding a time to a rate, or comparing a size against a
    deadline, type-checks in Python and silently produces garbage
    delay/jitter figures.  The extraction pass tags expressions from
    :mod:`repro.units` constructors, identifier conventions, and
    annotated parameters; a finding is only raised when *both* sides
    carry a known, different dimension.
    """

    id = "dimension-mismatch"
    description = ("arithmetic/comparison/argument mixing time, rate, "
                   "and size dimensions")

    def check(self, program: Program) -> Iterator[Violation]:
        for _key, summary, function in _iter_functions(program):
            for check in function["dim_checks"]:
                left = program.resolve_dimspec(check["left"])
                right = program.resolve_dimspec(check["right"])
                if left is None or right is None or left == right:
                    continue
                yield self.violation(
                    summary, check["lineno"], check["col"],
                    f"{check['detail']} in {function['qualname']} mixes "
                    f"{dim_name(left)} with {dim_name(right)}; convert "
                    f"via repro.units before combining")


@register
class UntiebrokenEventTransitive(ProgramRule):
    """Tree-wide: any ``schedule``/``schedule_at`` without ``priority=``.

    The kernel orders simultaneous events by ``(priority, insertion
    seq)``, and the data path's correctness depends on which of two
    same-instant events runs first: a packet's arrival at a node
    versus that node's transmitter looking for work, a regulator
    release versus a transmission completion, a link-down fault timer
    versus a packet event (which must win, or sharded runs stop being
    bit-identical).  An event scheduled without an explicit priority
    falls back to ``PRIORITY_NORMAL`` implicitly — nobody decided —
    and a later re-ordering of default priorities would silently
    shift its tie-break class.  The check covers every directory (it
    absorbed lint's per-directory ``untiebroken-event``); the message
    names how many distinct functions reach the site so reviewers can
    judge the blast radius.
    """

    id = "untiebroken-event-transitive"
    description = ("schedule()/schedule_at() call without an explicit "
                   "priority= tie-break, anywhere in the tree")

    def check(self, program: Program) -> Iterator[Violation]:
        for key, summary, function in _iter_functions(program):
            for site in function["schedule_sites"]:
                if site["has_priority"]:
                    continue
                callers = program.callers_of(key)
                reach = (f"; reached from {len(callers)} other "
                         f"function(s)" if callers else "")
                yield self.violation(
                    summary, site["lineno"], site["col"],
                    f"{site['func']}() in {function['qualname']} has no "
                    f"priority= tie-break{reach}; pass an explicit "
                    f"priority (e.g. PRIORITY_NORMAL) so same-timestamp "
                    f"ordering is pinned")


@register
class UnreleasedReservation(ProgramRule):
    """Reservation-acquiring paths with no matching release in scope.

    ``AdmissionController.admit`` / ``Procedure.reserve`` add a
    session's rate to a link's committed sum; the paper's schedulability
    conditions (eq. 18) assume that sum only contains *live* sessions.
    A function that reserves repeatedly (in a loop, or at several call
    sites) without any ``release`` on its exit edges — neither locally,
    nor in an exception handler, nor inside the (transactional) callee
    itself — leaks committed rate until admission wrongly refuses
    future sessions.
    """

    id = "unreleased-reservation"
    description = ("repeated admit/reserve with no release on any exit "
                   "edge (locally, in handlers, or in the callee)")

    def check(self, program: Program) -> Iterator[Violation]:
        for _key, summary, function in _iter_functions(program):
            module = summary["module"]
            reserve_calls = function["reserve_calls"]
            if not reserve_calls:
                continue
            risky = [call for call in reserve_calls if call["in_loop"]]
            if not risky and len(reserve_calls) >= 2:
                risky = reserve_calls
            if not risky:
                continue
            # Exit-edge release: anywhere in the function body…
            if any(program.call_reaches_release(module, call)
                   for call in function["calls"]
                   if call["name"].rsplit(".", 1)[-1]
                   not in RESERVE_NAMES):
                continue
            # …or the reserving callee is itself transactional (it has
            # a try block whose handler releases — the controller's
            # admit() shape), which makes the caller's loop safe.
            if self._all_callees_transactional(program, module, risky):
                continue
            first = risky[0]
            yield self.violation(
                summary, first["lineno"], first["col"],
                f"{function['qualname']} calls {first['name']}() "
                f"{'in a loop' if first['in_loop'] else 'repeatedly'} "
                f"with no release() on any exit edge; leaked "
                f"reservations inflate the committed-rate sum and "
                f"starve future admissions")

    @staticmethod
    def _all_callees_transactional(program: Program, module: str,
                                   risky: List[Dict[str, Any]]) -> bool:
        for call in risky:
            candidates = program.resolve_call(module, call)
            if not candidates:
                return False
            for key in candidates:
                _summary, callee = program.functions[key]
                callee_module = _summary["module"]
                if not callee["has_try"]:
                    return False
                if not any(
                        program.call_reaches_release(callee_module,
                                                     handler_call)
                        for handler_call in callee["handler_calls"]):
                    return False
        return True
