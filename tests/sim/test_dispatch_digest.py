"""Digest-equality gates for the fused-dispatch overhaul.

The kernel rewrite (single fused ``Simulator.run`` loop, event
recycling, zero-cost tracing) must be *behaviourally invisible*: the
``(time, priority, seq)`` total order and every figure observable have
to come out bit-identical to the pre-overhaul kernel.  These tests pin
that claim to golden SHA-256 digests computed on the pre-overhaul tree
(commit 2342b1d) and re-checked on every run since:

* a scripted kernel workload full of same-instant ties, negative/zero/
  positive priorities, cancellations, and a mid-script reset — the
  dispatch *order* digest;
* one shortened Figure-7 MIX cell, tracing off and tracing on — the
  figure-observable and trace-stream digests;
* one call-churn cell and two fault-sweep cells (clean and faulted) —
  admission, per-call teardown, drops, link flaps and requeue recovery.

If a kernel change breaks one of these digests it changed simulation
semantics, not just speed, and must be rejected (or the change must be
argued through and the goldens re-baselined in the same commit).

``utilization()`` is deliberately *not* part of the figure digest: the
same PR fixes the known busy-time overstatement for runs stopped
mid-transmission (see ``test_busy_time.py``), which legitimately
changes utilization readings while leaving event order untouched.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

import pytest

from repro.experiments import call_churn, fault_sweep
from repro.experiments.common import build_mix_network
from repro.experiments.figure07 import TARGET_SESSION
from repro.sim.backends import KERNEL_BACKENDS, available_backends
from repro.sim.kernel import Simulator
from repro.units import ms, seconds

# Golden digests computed on the pre-overhaul kernel (commit 2342b1d).
KERNEL_ORDER_DIGEST = (
    "c2e634790a88f8a4d8a4564c22497859019d499af7e3f5c4fd58cfb3e015b6ed")
FIG07_CELL_DIGEST_TRACE_OFF = (
    "fc53b35c8506c0850734c90aaaf7b254c4bb66681c12988884c3467ff680d286")
FIG07_CELL_DIGEST_TRACE_ON = (
    "ebc96f87b7a8a761e844175f3877a68efe22393a728fde5f92388020db271fec")

# Golden digests of the churn and fault cells, computed on commit
# b23538d (where they were also equal across the session-state
# representations that tree carried).
CALL_CHURN_CELL_DIGEST = (
    "b75f1a6daeff047fc22096b1bfed851ea1f4ddc4ad23d2a2f4740fe930159b76")
FAULT_SWEEP_CELL_DIGESTS = {
    0.0: "62545ef5b1e77a93b45dcf974ff4ff84924c495c437cae526c81cf10ab6b9fbd",
    1.0: "709c99c554fbcb3756073d64a7782079a51c6ac54a7b298a8e36c7085707e2b0",
}

#: Shortened fig07 cell: one mid-sweep a_OFF point, one simulated second.
_A_OFF = ms(88.0)
_CELL_DURATION = seconds(1.0)


def _digest(parts: List[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def run_scripted_kernel_workload(sim: Simulator) -> List[Tuple[float, str]]:
    """A deterministic schedule/cancel/reset script with many ties.

    Exercises: identical (time, priority) pairs resolved by insertion
    order, negative and positive priorities, cancellation of pending
    events from inside callbacks, callbacks scheduling at the current
    instant, and a reset followed by a second run.
    """
    log: List[Tuple[float, str]] = []
    handles = []

    def cb(tag: str) -> None:
        log.append((sim.now, tag))
        n = len(log)
        if n % 3 == 0 and sim.now < 0.5:
            sim.schedule(0.001 * (n % 7), cb, f"{tag}/c{n}")
        if n % 5 == 0 and handles:
            handles[n % len(handles)].cancel()
        if n % 4 == 0 and sim.now < 0.3:
            handles.append(sim.schedule(0.0005 * (n % 11), cb,
                                        f"{tag}/d{n}", priority=n % 3 - 1))

    for k in range(50):
        handles.append(sim.schedule(0.001 * k, cb, f"root{k}",
                                    priority=k % 3 - 1))
        if k % 7 == 0:
            # Same-instant ties across root events: insertion order must
            # decide.
            sim.schedule_at(0.02, cb, f"tie{k}")
    sim.run(until=0.075)
    sim.run(max_events=40)
    sim.run()  # drain

    # Reset mid-script, then a short second act: the clock rewinds and
    # stale handles must stay inert.
    sim.reset()
    for handle in handles:
        handle.cancel()
    for k in range(10):
        sim.schedule(0.002 * (k % 4), cb, f"act2-{k}", priority=-(k % 2))
    sim.run()
    log.append((sim.now, f"end:{sim.events_dispatched}:{sim.pending}"))
    return log


def kernel_order_digest() -> str:
    log = run_scripted_kernel_workload(Simulator())
    return _digest([f"{t!r}|{tag}" for t, tag in log])


def fig07_cell_digest(trace_on: bool) -> str:
    """Digest of one shortened fig07 MIX cell's order-sensitive output."""
    network = build_mix_network(_A_OFF, seed=0)
    network.tracer.enabled = trace_on
    network.run(_CELL_DURATION)
    sink = network.sink(TARGET_SESSION)
    parts = [
        repr(sink.received),
        repr(sink.bits_received),
        repr(sink.max_delay),
        repr(sink.min_delay),
        repr(sink.jitter),
        repr(sink.delay.mean),
        repr(network.sim.events_dispatched),
        repr(network.sim.now),
    ]
    if trace_on:
        for record in network.tracer.records:
            detail = sorted(record.detail.items())
            parts.append(f"{record.time!r}|{record.category}|{record.node}"
                         f"|{record.session}|{record.packet}|{detail!r}")
    return _digest(parts)


def churn_cell_digest() -> str:
    """Digest of one call-churn cell's per-call log and event count."""
    output = call_churn._cell(duration=8.0, seed=0,
                              offered_erlangs=12.0, mean_holding=2.0)
    parts = [repr(call) for call in output.value.calls]
    parts.append(repr(output.events))
    return _digest(parts)


def fault_cell_digest(outage: float) -> str:
    """Digest of one Leave-in-Time fault-sweep cell (0 = clean)."""
    output = fault_sweep._cell(discipline="leave-in-time",
                               outage=outage, duration=6.0, seed=0)
    return _digest([repr(output.value), repr(output.events)])


# Every kernel backend must reproduce the goldens bit-for-bit — the
# equivalence half of the backend contract (the Simulator docstring).
# Selection goes through the environment variable, the same path the
# CI matrix and sweep pool workers use.
@pytest.fixture(params=KERNEL_BACKENDS)
def kernel_backend(request, monkeypatch):
    name = request.param
    if name not in available_backends():
        pytest.skip(f"kernel backend {name!r} not built here")
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", name)
    return name


def test_kernel_dispatch_order_is_bit_identical(kernel_backend):
    assert kernel_order_digest() == KERNEL_ORDER_DIGEST


def test_fig07_cell_is_bit_identical_tracing_off(kernel_backend):
    assert fig07_cell_digest(trace_on=False) == FIG07_CELL_DIGEST_TRACE_OFF


def test_fig07_cell_is_bit_identical_tracing_on(kernel_backend):
    assert fig07_cell_digest(trace_on=True) == FIG07_CELL_DIGEST_TRACE_ON


def test_call_churn_cell_digest_matches_golden(kernel_backend):
    assert churn_cell_digest() == CALL_CHURN_CELL_DIGEST


@pytest.mark.parametrize("outage", [0.0, 1.0], ids=["clean", "faulted"])
def test_fault_sweep_cell_digest_matches_golden(kernel_backend, outage):
    assert fault_cell_digest(outage) == FAULT_SWEEP_CELL_DIGESTS[outage]
