"""The three determinism / parallel-safety rules of the det analyzer.

These rules gate the ROADMAP's space-parallel kernel: sharding one
topology across worker processes is only sound when (1) no state is
shared between shards, (2) every random draw is keyed by stable entity
identity rather than worker- or order-local data, and (3) cross-shard
result merging is order-insensitive.  Each rule consumes the same
assembled :class:`~repro.analysis.verify.model.Program` as verify —
per-file summaries come from one shared extraction pass and the one
``program`` cache (see :mod:`repro.analysis.lint.cache`).

All three rules report only *provable* hazards: unknown provenance,
unresolvable receivers, and unannotated containers stay silent, so a
finding is always actionable.  Suppressions use the same
``# repro: disable=<rule> -- justification`` comments as the other
analyzers.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Set, Tuple

from repro.analysis.lint.core import Violation
from repro.analysis.verify.model import Program
from repro.analysis.verify.rules import ProgramRule

__all__ = [
    "register",
    "registered_rules",
    "SharedMutableState",
    "RngStreamDiscipline",
    "UnorderedMerge",
]


_REGISTRY: Dict[str, type] = {}


def register(rule_class: type) -> type:
    """Register a det rule (registry separate from verify's)."""
    if not rule_class.id:
        raise ValueError(f"rule {rule_class.__name__} has no id")
    if rule_class.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.id!r}")
    _REGISTRY[rule_class.id] = rule_class
    return rule_class


def registered_rules() -> Dict[str, type]:
    return dict(_REGISTRY)


def _last(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _iter_functions(program: Program) -> Iterator[
        Tuple[str, Dict[str, Any], Dict[str, Any]]]:
    for key, (summary, function) in sorted(program.functions.items()):
        yield key, summary, function


@register
class SharedMutableState(ProgramRule):
    """Module/class-level mutable state written on kernel-reachable paths.

    A worker process forked for a shard gets a *copy* of every module
    global and class attribute; writes to them during the simulation
    silently diverge between shards (and between ``workers=1`` and
    ``workers=N``), which is exactly the bug class bit-identity testing
    cannot localize.  Flagged are (a) in-place mutations, rebinds, and
    subscript writes of module-level (including cross-module) state
    from any function in the kernel's forward call closure, and
    (b) class-body mutable containers on classes with kernel-reachable
    methods — one object shared by every instance.  Import-time
    population (the ``<module>`` pseudo-function outside the closure)
    is deliberately allowed: it replays identically in every worker.
    """

    id = "shared-mutable-state"
    description = ("module-level or class-level mutable state written "
                   "on a kernel-reachable path")

    def check(self, program: Program) -> Iterator[Violation]:
        reachable = program.kernel_reachable()
        reachable_classes: Set[Tuple[str, str]] = set()
        for key in reachable:
            summary, function = program.functions[key]
            qualname = function["qualname"]
            if "." in qualname:
                reachable_classes.add(
                    (summary["module"], qualname.rsplit(".", 1)[0]))
        for key, summary, function in _iter_functions(program):
            if key not in reachable:
                continue
            for mutation in function.get("global_mutations", ()):
                yield self.violation(
                    summary, mutation["lineno"], mutation["col"],
                    f"{function['qualname']} writes module-level state "
                    f"{mutation['target']} ({mutation['via']}) on a "
                    f"kernel-reachable path; shared mutable state "
                    f"diverges across space-parallel shards — move it "
                    f"onto a per-simulation object")
        for entry in sorted(program.class_attrs,
                            key=lambda e: (e["path"], e["lineno"])):
            if (entry["module"], entry["class"]) not in reachable_classes:
                continue
            yield self.violation(
                entry, entry["lineno"], entry["col"],
                f"class-level mutable {entry['kind']} "
                f"{entry['class']}.{entry['attr']} is one object shared "
                f"by every instance and written under the event loop; "
                f"initialize it per instance in __init__")


@register
class RngStreamDiscipline(ProgramRule):
    """Stream names must derive from stable entity identity.

    ``RandomStreams.stream(name)`` seeds a substream from the name, so
    the name *is* the random-number coupling key.  A name derived from
    worker-local data (``id()``, ``getpid()``, wall-clock, ambient
    RNG) or from iteration-order data (a set/dict loop variable, a
    mutated module-level counter) hands different shards different
    streams — runs decorrelate without any visible failure.  Only
    provably tainted provenance is reported; names built from
    parameters, constants, and stable ids pass.
    """

    id = "rng-stream-discipline"
    description = ("RandomStreams.stream()/spawn() name derived from "
                   "worker-local or iteration-order data")

    def check(self, program: Program) -> Iterator[Violation]:
        mutated = {mutation["target"]
                   for _key, (_s, function) in program.functions.items()
                   for mutation in function.get("global_mutations", ())}
        for _key, summary, function in _iter_functions(program):
            for call in function.get("stream_calls", ()):
                if call["taint"] == "tainted":
                    yield self.violation(
                        summary, call["lineno"], call["col"],
                        f"{function['qualname']} names a random stream "
                        f"({call['desc']!r}) from worker-local or "
                        f"iteration-order data; derive it from a "
                        f"stable entity id so every shard draws the "
                        f"same substream")
                    continue
                order_dependent = sorted(
                    set(call.get("reads", ())) & mutated)
                if order_dependent:
                    yield self.violation(
                        summary, call["lineno"], call["col"],
                        f"{function['qualname']} names a random stream "
                        f"({call['desc']!r}) from mutated module state "
                        f"{order_dependent[0]}; the value depends on "
                        f"call order — use a stable entity id instead")


@register
class UnorderedMerge(ProgramRule):
    """Set/dict iteration on the sweep-aggregation paths.

    Extends ``nondeterministic-iteration`` interprocedurally to the
    result-merge layer: a ``cells()`` builder or a ``run_cells``
    caller (and everything it reaches within its own modules) that
    iterates an unordered container bakes hash order into the merged
    rows even though nothing in the loop body touches the event queue.
    Cross-shard merges must be provably order-insensitive — iterate
    ``sorted(...)`` or an explicitly ordered list.  Scope is limited
    to the modules that own the roots, so a set loop deep in the
    simulation layers is reported by the scheduling-aware verify rule,
    not double-reported here.
    """

    id = "unordered-merge"
    description = ("set/dict iteration on a cells()/run_cells "
                   "aggregation path; merge order must be key-sorted")

    def check(self, program: Program) -> Iterator[Violation]:
        roots = {key for key, (_s, function) in program.functions.items()
                 if function["name"] == "cells"
                 or any(_last(call["name"]) == "run_cells"
                        for call in function["calls"])}
        if not roots:
            return
        modules = {program.functions[key][0]["module"] for key in roots}
        scope = {key for key in program.forward_closure(roots)
                 if program.functions[key][0]["module"] in modules}
        for key, summary, function in _iter_functions(program):
            if key not in scope:
                continue
            for loop in function["loops"]:
                kind = loop["kind"] or program.attr_kind(loop.get("attr"))
                if kind not in ("set", "dict"):
                    continue
                shape = "comprehension over" if loop.get("comp") \
                    else "loop over"
                yield self.violation(
                    summary, loop["lineno"], loop["col"],
                    f"{shape} a {kind} ({loop['desc']!r}) in "
                    f"{function['qualname']} on a sweep-aggregation "
                    f"path; merge order must not depend on hash order "
                    f"— iterate sorted(...) or keep an ordered list")
