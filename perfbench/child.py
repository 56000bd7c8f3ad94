"""One repetition of one workload, printed as a JSON line.

``run.py`` starts this script in a fresh interpreter for every
repetition, one at a time, so the process's resident-set high-water
mark belongs to that repetition alone.  The repetition builds the
scenario (the set-up phase), runs ``Network.run`` to the horizon (the
run phase, timed), takes the digest and packet totals at the horizon,
then stops every source, drains the network and checks conservation
and the eq.-12 delay bounds.  With ``--trace 1`` the layers' entry
points are wrapped in spans first (see ``tracing.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter
from typing import Any, Dict, Optional

#: Safety valve for the drain after the horizon.
DRAIN_EVENT_LIMIT = 50_000_000


def _layer_metrics(tracer, scenario, events: int, delivered: int,
                   emitted: int) -> Dict[str, float]:
    """The traced per-layer metrics of the run phase."""
    t = tracer
    receive_calls = t.calls("net.node.receive")
    next_calls = t.calls("sched.next_packet")
    admits = t.calls("admission.admit")
    admit_us = sorted(ns / 1e3 for ns in t.samples["admission.admit"])
    sim_self = t.layer_self_s("sim")
    node_self = t.layer_self_s("net.node")

    def quantile(values, q):
        return values[min(len(values) - 1, int(q * len(values)))] \
            if values else 0.0

    return {
        "sim.events": events,
        "sim.events_per_pkt": events / delivered if delivered else 0.0,
        "sim.self_s": sim_self,
        "sim.self_ns_per_event": sim_self * 1e9 / events if events else 0.0,
        "sim.pending_at_start": t.pending_at_start or 0,
        "net.node.receive_calls": receive_calls,
        "net.node.self_s": node_self,
        "net.node.self_ns_per_hop":
            node_self * 1e9 / receive_calls if receive_calls else 0.0,
        "net.network.self_s": t.layer_self_s("net.network"),
        "net.sink.self_s": t.layer_self_s("net.sink"),
        "sched.self_s": t.layer_self_s("sched"),
        "sched.on_arrival_ns": t.ns_per_call("sched.on_arrival"),
        "sched.next_packet_ns": t.ns_per_call("sched.next_packet"),
        "sched.on_transmit_complete_ns":
            t.ns_per_call("sched.on_transmit_complete"),
        "sched.next_packet_hit_ratio":
            t.next_packet_hits / next_calls if next_calls else 0.0,
        "sched.backlog_max": t.backlog_max,
        "traffic.self_s": t.layer_self_s("traffic"),
        "traffic.pkts_emitted": emitted,
        "admission.admit_calls": admits,
        "admission.accept_ratio":
            getattr(scenario, "accepted", 0) / admits if admits else 0.0,
        "admission.self_s": t.layer_self_s("admission"),
        "admission.admit_p50_us": quantile(admit_us, 0.50),
        "admission.admit_p99_us": quantile(admit_us, 0.99),
        "bounds.calls": t.calls("bounds.compute"),
        "bounds.self_s": t.layer_self_s("bounds"),
        "net.session.add_s": t.self_ns("net.session.add") / 1e9,
        "net.session.remove_s": t.self_ns("net.session.remove") / 1e9,
        "setup.add_session_s": t.self_ns("net.session.add", "setup") / 1e9,
        "setup.source_s": t.self_ns("traffic.init", "setup") / 1e9,
        "faults.self_s": t.layer_self_s("faults"),
    }


def run_once(workload_name: str, seed: int, trace_out: Optional[str]
             ) -> Dict[str, Any]:
    tracer = None
    if trace_out is not None:
        from tracing import SpanTracer, install
        tracer = SpanTracer()
        install(tracer)
    from workloads import WORKLOADS, current_rss_kb

    workload = WORKLOADS[workload_name]
    # A traced run builds once: its set-up spans then describe one build.
    repeats = 1 if tracer is not None else workload.setup_repeats
    rss_before = current_rss_kb()
    setups = []
    scenario = None
    for index in range(repeats):
        scenario = None  # release the previous build before the next
        start = perf_counter()
        scenario = workload.build(seed)
        setups.append(perf_counter() - start)
        if index == 0:
            rss_first = current_rss_kb()
    rss_setup = current_rss_kb()
    network = scenario.network
    sim = network.sim
    sessions_at_setup = len(network.sessions)
    events_before = sim.events_dispatched

    if tracer is not None:
        tracer.phase = "run"
    start = perf_counter()
    network.run(scenario.horizon)
    run_s = perf_counter() - start
    if tracer is not None:
        tracer.phase = "post"

    memory = scenario.memory_metrics(current_rss_kb())
    events = sim.events_dispatched - events_before
    digest = scenario.digest()
    injected, delivered, dropped = scenario.totals()
    nodes = network.nodes.values()
    queued = sum(node.scheduler.backlog + (node.transmitting is not None)
                 for node in nodes)
    emitted = sum(source.emitted for source in network.sources)
    fault_drops = scenario.fault_drops()

    # Conservation: every packet injected by the horizon is delivered,
    # dropped, or still in flight; draining the stopped network must
    # account for each in-flight packet and leave every node idle.
    scenario.stop_traffic()
    sim.run(max_events=DRAIN_EVENT_LIMIT)
    final_injected, final_delivered, final_dropped = scenario.totals()
    in_flight = injected - delivered - dropped
    conservation = {
        "injected": injected, "delivered": delivered, "dropped": dropped,
        "queued_at_horizon": queued, "in_flight_at_horizon": in_flight,
        "final_injected": final_injected,
        "final_delivered": final_delivered,
        "final_dropped": final_dropped,
        "pending_after_drain": sim.pending,
    }
    conserved = (final_injected == injected
                 and final_injected == final_delivered + final_dropped
                 and in_flight >= queued
                 and sim.pending == 0
                 and all(node.scheduler.backlog == 0
                         and node.transmitting is None for node in nodes))
    bounds_checked, bound_failures = scenario.check_bounds()

    per_layer: Dict[str, float]
    if tracer is not None:
        per_layer = _layer_metrics(tracer, scenario, events, delivered,
                                   emitted)
        per_layer["faults.drops"] = fault_drops
        with open(trace_out, "w") as handle:
            json.dump(tracer.to_json(), handle)
    else:
        per_layer = {
            "setup.rss_mb": rss_setup / 1024.0,
            "setup.kb_per_session":
                (rss_first - rss_before) / sessions_at_setup
                if sessions_at_setup else 0.0,
            "net.session.retained_kb_per_call": 0.0,
        }
        per_layer.update(memory)

    return {
        "workload": workload_name,
        "seed": seed,
        "traced": tracer is not None,
        "horizon_s": scenario.horizon,
        "kernel_backend": sim.backend,
        "state_backend": network.state_backend,
        "session_table": network.session_table is not None,
        "setup_s": statistics.median(setups),
        "setup_samples_s": setups,
        "run_s": run_s,
        "delivered": delivered,
        "events": events,
        "digest": digest,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "conserved": conserved,
        "conservation": conservation,
        "bounds_checked": bounds_checked,
        "bound_failures": bound_failures,
        "per_layer": per_layer,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", default=None,
                        help="trace the run and write its spans here")
    args = parser.parse_args(argv)
    result = run_once(args.workload, args.seed, args.trace_out)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    # Skip the interpreter's teardown: freeing every object of a 10^5
    # session network one by one takes longer than the run phase.
    os._exit(0)


if __name__ == "__main__":
    main()
