"""Span tracing of the simulator's layers, from outside the program.

:func:`install` replaces public entry points of each layer, at class or
module level in the traced process only, with wrappers that time the
call as a span.  ``Simulator.schedule``/``schedule_at`` also wrap every
callback they are given in a span named after the layer that owns the
callback, so each dispatched event is charged to a layer.  A span's
self time is its duration minus the time covered by the spans it
encloses; the kernel's self time is therefore the ``run`` loop minus
every callback, plus the ``schedule`` calls themselves.

Spans are aggregated per ``(phase, name)`` as they close, and the first
:data:`RAW_SPAN_LIMIT` spans are also kept verbatim (name, start, end,
nesting depth) so the trace can be written out when the run ends.
Nothing here changes what the program computes: the wrappers pass
arguments and results through, and event order depends only on the
(time, priority, sequence) keys the kernel assigns.
"""

from __future__ import annotations

from functools import partial, wraps
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["SpanTracer", "install", "LAYER_OF"]

#: Raw spans kept for the trace file; aggregation covers every span.
RAW_SPAN_LIMIT = 50_000

#: Span name -> layer.  Callback spans are named ``cb.<layer>``.
LAYER_OF: Dict[str, str] = {
    "sim.run": "sim",
    "sim.schedule": "sim",
    "net.node.receive": "net.node",
    "net.network.inject": "net.network",
    "net.network.deliver": "net.network",
    "net.sink.receive": "net.sink",
    "sched.on_arrival": "sched",
    "sched.next_packet": "sched",
    "sched.on_transmit_complete": "sched",
    "traffic.init": "traffic",
    "traffic.start": "traffic",
    "traffic.stop": "traffic",
    "admission.admit": "admission",
    "admission.release": "admission",
    "bounds.compute": "bounds",
    "net.session.add": "net.session",
    "net.session.remove": "net.session",
    "faults.transmit_verdict": "faults",
    "faults.is_corrupted": "faults",
}

#: Callback module prefix -> layer charged for the dispatched event.
#: Generator processes drive the traffic sources.
_CALLBACK_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.process", "traffic"),
    ("repro.net.node", "net.node"),
    ("repro.net.network", "net.network"),
    ("repro.sched", "sched"),
    ("repro.faults", "faults"),
    ("repro.traffic", "traffic"),
    ("repro.admission", "admission"),
)
for _, _layer in _CALLBACK_LAYERS:
    LAYER_OF[f"cb.{_layer}"] = _layer
LAYER_OF["cb.workload"] = "workload"


class SpanTracer:
    """Stack-based span timer with per-name aggregates."""

    def __init__(self) -> None:
        #: ``"setup"``, ``"run"`` or ``"post"``; aggregates are kept
        #: per phase so setup and run costs stay apart.
        self.phase = "setup"
        #: Time covered by child spans, one accumulator per open span.
        self._children: List[int] = [0]
        #: (phase, name) -> [calls, self ns, total ns].
        self.totals: Dict[Tuple[str, str], List[int]] = {}
        #: Inclusive durations (ns) of selected span names, run phase.
        self.samples: Dict[str, List[int]] = {"admission.admit": []}
        self.raw: List[Tuple[str, int, int, int]] = []
        #: Kernel events pending when the run loop was entered.
        self.pending_at_start: Optional[int] = None
        #: Calls to ``next_packet`` that returned a packet.
        self.next_packet_hits = 0
        #: Largest scheduler backlog seen after an arrival.
        self.backlog_max = 0

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        children = self._children
        children.append(0)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            child = children.pop()
            duration = end - start
            children[-1] += duration
            key = (self.phase, name)
            record = self.totals.get(key)
            if record is None:
                record = self.totals[key] = [0, 0, 0]
            record[0] += 1
            record[1] += duration - child
            record[2] += duration
            samples = self.samples.get(name)
            if samples is not None and self.phase == "run":
                samples.append(duration)
            if len(self.raw) < RAW_SPAN_LIMIT:
                self.raw.append((name, start, end, len(children)))

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------
    def calls(self, name: str, phase: str = "run") -> int:
        record = self.totals.get((phase, name))
        return record[0] if record else 0

    def self_ns(self, name: str, phase: str = "run") -> int:
        record = self.totals.get((phase, name))
        return record[1] if record else 0

    def layer_self_s(self, layer: str, phase: str = "run") -> float:
        return sum(record[1] for (p, name), record in self.totals.items()
                   if p == phase and LAYER_OF.get(name) == layer) / 1e9

    def ns_per_call(self, name: str, phase: str = "run") -> float:
        calls = self.calls(name, phase)
        return self.self_ns(name, phase) / calls if calls else 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "spans": [{"phase": phase, "name": name, "layer":
                       LAYER_OF.get(name, "other"), "calls": rec[0],
                       "self_ns": rec[1], "total_ns": rec[2]}
                      for (phase, name), rec in sorted(self.totals.items())],
            "raw_spans": {"fields": ["name", "start_ns", "end_ns",
                                     "depth"],
                          "limit": RAW_SPAN_LIMIT, "rows": self.raw},
        }


def _wrap(tracer: SpanTracer, owner: Any, attr: str, name: str,
          after: Optional[Callable[[Any, Any], None]] = None) -> None:
    """Replace ``owner.attr`` with a span-timed pass-through.

    ``after(self_or_first_arg, result)`` runs outside the span.
    """
    original = getattr(owner, attr)
    call = tracer.call

    @wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = call(name, original, *args, **kwargs)
        if after is not None:
            after(args[0] if args else None, result)
        return result

    wrapper._perfbench_span = name  # type: ignore[attr-defined]
    setattr(owner, attr, wrapper)


def _callback_layer(callback: Callable[..., Any],
                    cache: Dict[Any, Optional[str]]) -> Optional[str]:
    """Layer to charge for ``callback``; None when it is already a span."""
    while isinstance(callback, partial):
        callback = callback.func
    function = getattr(callback, "__func__", callback)
    try:
        return cache[function]
    except KeyError:
        pass
    layer: Optional[str]
    if getattr(function, "_perfbench_span", None) is not None:
        layer = None
    else:
        module = getattr(function, "__module__", "") or ""
        layer = next((lay for prefix, lay in _CALLBACK_LAYERS
                      if module.startswith(prefix)), "workload")
    cache[function] = layer
    return layer


def install(tracer: SpanTracer) -> None:
    """Patch the layers' entry points in this process to emit spans."""
    from repro.admission.controller import AdmissionController
    from repro.bounds import delay as bounds_delay
    from repro.faults.injector import FaultInjector, NodeFaultState
    from repro.net.network import Network
    from repro.net.node import ServerNode
    from repro.net.sink import Sink
    from repro.sched.leave_in_time import LeaveInTime
    from repro.sim.kernel import Simulator
    from repro.traffic.base import TrafficSource
    from repro.traffic.onoff import OnOffSource
    from repro.traffic.poisson import PoissonSource

    call = tracer.call
    layers: Dict[Any, Optional[str]] = {}

    # The kernel class the default factory builds (the default backend).
    kernel = type(Simulator())
    run = kernel.run

    def traced_scheduling(original):
        def wrapper(self, when, callback, *args, **kwargs):
            layer = _callback_layer(callback, layers)
            if layer is not None:
                callback = partial(call, f"cb.{layer}", callback)
            return call("sim.schedule", original, self, when, callback,
                        *args, **kwargs)
        return wrapper

    def traced_run(self, *args, **kwargs):
        if tracer.phase == "run" and tracer.pending_at_start is None:
            tracer.pending_at_start = self.pending
        return call("sim.run", run, self, *args, **kwargs)

    for attr, wrapper in (("schedule", traced_scheduling(kernel.schedule)),
                          ("schedule_at",
                           traced_scheduling(kernel.schedule_at)),
                          ("run", traced_run)):
        wrapper._perfbench_span = "sim." + attr  # type: ignore
        setattr(kernel, attr, wrapper)

    def count_hit(_scheduler: Any, packet: Any) -> None:
        if packet is not None and tracer.phase == "run":
            tracer.next_packet_hits += 1

    def note_backlog(scheduler: Any, _result: Any) -> None:
        backlog = scheduler.backlog
        if backlog > tracer.backlog_max and tracer.phase == "run":
            tracer.backlog_max = backlog

    _wrap(tracer, ServerNode, "receive", "net.node.receive")
    _wrap(tracer, Network, "inject", "net.network.inject")
    _wrap(tracer, Network, "deliver", "net.network.deliver")
    _wrap(tracer, Network, "add_session", "net.session.add")
    _wrap(tracer, Network, "remove_session", "net.session.remove")
    _wrap(tracer, Sink, "receive", "net.sink.receive")
    _wrap(tracer, LeaveInTime, "on_arrival", "sched.on_arrival",
          note_backlog)
    _wrap(tracer, LeaveInTime, "next_packet", "sched.next_packet",
          count_hit)
    _wrap(tracer, LeaveInTime, "on_transmit_complete",
          "sched.on_transmit_complete")
    _wrap(tracer, AdmissionController, "admit", "admission.admit")
    _wrap(tracer, AdmissionController, "release", "admission.release")
    _wrap(tracer, bounds_delay, "compute_session_bounds", "bounds.compute")
    _wrap(tracer, TrafficSource, "start", "traffic.start")
    _wrap(tracer, TrafficSource, "stop", "traffic.stop")
    _wrap(tracer, OnOffSource, "__init__", "traffic.init")
    _wrap(tracer, PoissonSource, "__init__", "traffic.init")
    _wrap(tracer, NodeFaultState, "transmit_verdict",
          "faults.transmit_verdict")
    _wrap(tracer, FaultInjector, "is_corrupted", "faults.is_corrupted")
