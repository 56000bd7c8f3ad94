"""Kernel-backend selection plumbing and same-instant dispatch edge cases.

Two halves:

* the factory contract — ``Simulator(backend=...)`` resolves argument
  > ``REPRO_KERNEL_BACKEND`` > default and rejects unknown names with a
  :class:`~repro.errors.ConfigurationError`;
* the nasty corners of draining same-instant runs, each checked by
  *exact dispatch-log equality against the python reference backend*
  on the same scripted workload: a same-timestamp run spanning the
  ``until`` horizon (inclusive and exclusive), cancellation from
  inside a drained run, same-instant lower-priority preemption out
  of a run, recycled-handle safety, a mid-run ``reset()``, and a
  callback exception mid-run.

The figure-level equivalence gates (call churn, fault sweep clean and
faulted, the space-parallel shard digest) close the file: every
backend must reproduce the python backend's digests bit-for-bit, the
same standard ``test_state_backends.py`` holds the session-state
backends to.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.experiments import call_churn, fault_sweep
from repro.sim import backends
from repro.sim.backends import (KERNEL_BACKENDS, available_backends,
                                compiled, resolve_backend,
                                simulator_class)
from repro.sim.backends.compiled import CompiledSimulator
from repro.sim.kernel import Simulator


@pytest.fixture(params=KERNEL_BACKENDS)
def kernel_backend(request):
    name = request.param
    if name not in available_backends():
        pytest.skip(f"kernel backend {name!r} not built here")
    return name


def make_sim(backend: str) -> Simulator:
    return simulator_class(backend)()


# ----------------------------------------------------------------------
# Selection plumbing: argument > env > default
# ----------------------------------------------------------------------
class TestSelection:
    def test_default_is_python(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        sim = Simulator()
        assert type(sim) is Simulator
        assert sim.backend == "python"

    def test_env_selects_backend(self, monkeypatch):
        # Stand-in core: selection must not depend on a local build.
        monkeypatch.setattr(compiled, "_ckernel", object())
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "compiled")
        sim = Simulator()
        assert type(sim) is CompiledSimulator
        assert sim.backend == "compiled"

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "compiled")
        sim = Simulator(backend="python")
        assert type(sim) is Simulator
        assert sim.backend == "python"

    def test_blank_env_means_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "  ")
        assert resolve_backend() == "python"

    # "batch" names the removed batch-dispatch engine: a stale
    # selection must fail loud, not fall back to a default.
    def test_unknown_argument_rejected(self):
        for name in ("turbo", "batch"):
            with pytest.raises(ConfigurationError,
                               match="valid backends: python, compiled"):
                Simulator(backend=name)

    def test_unknown_env_rejected(self, monkeypatch):
        for name in ("turbo", "batch"):
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", name)
            with pytest.raises(ConfigurationError,
                               match="valid backends: python, compiled"):
                Simulator()

    def test_backend_class_rejects_conflicting_name(self):
        with pytest.raises(ConfigurationError, match="compiled"):
            CompiledSimulator(backend="python")

    def test_subclasses_are_not_redirected(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "compiled")

        class Probe(Simulator):
            __slots__ = ()

        assert type(Probe()) is Probe

    def test_registry_and_availability(self):
        assert set(available_backends()) <= set(KERNEL_BACKENDS)
        assert "python" in available_backends()
        assert ("compiled" in available_backends()
                ) == backends.compiled_available()

    def test_compiled_absent_fails_with_build_hint(self, monkeypatch):
        monkeypatch.setattr(compiled, "_ckernel", None)
        assert not compiled.ckernel_available()
        assert "compiled" not in available_backends()
        with pytest.raises(SimulationError,
                           match="compiled-backend") as raised:
            Simulator(backend="compiled")
        message = str(raised.value)
        assert "'python' backend" in message
        assert "batch" not in message


# ----------------------------------------------------------------------
# Same-instant dispatch edge cases, each pinned to the python reference
# by exact dispatch-log equality
# ----------------------------------------------------------------------
Log = List[Tuple[float, str]]


def _horizon_workload(sim: Simulator, *, exclusive: bool,
                      resume: bool) -> Log:
    """A 6-event same-(time, priority) run parked exactly at the
    ``until`` horizon, with earlier and later traffic around it."""
    log: Log = []

    def cb(tag: str) -> None:
        log.append((sim.now, tag))

    sim.schedule(0.1, cb, "early")
    for k in range(6):
        sim.schedule_at(0.5, cb, f"run{k}")
    sim.schedule_at(0.5, cb, "late-prio", priority=5)
    sim.schedule(0.9, cb, "after")
    sim.run(until=0.5, exclusive=exclusive)
    log.append((sim.now, f"cut:{sim.events_dispatched}:{sim.pending}"))
    if resume:
        sim.run()
        log.append((sim.now,
                    f"end:{sim.events_dispatched}:{sim.pending}"))
    return log


@pytest.mark.parametrize("exclusive", [False, True],
                         ids=["inclusive", "exclusive"])
@pytest.mark.parametrize("resume", [False, True])
def test_run_spanning_horizon_matches_reference(kernel_backend,
                                                exclusive, resume):
    reference = _horizon_workload(make_sim("python"),
                                  exclusive=exclusive, resume=resume)
    candidate = _horizon_workload(make_sim(kernel_backend),
                                  exclusive=exclusive, resume=resume)
    assert candidate == reference


def _cancel_inside_run_workload(sim: Simulator) -> Log:
    """Members of one drained run cancelling later (and earlier)
    members of the same run, plus an outsider at the next instant."""
    log: Log = []
    handles = []

    def cb(tag: str, kill: Optional[int]) -> None:
        log.append((sim.now, tag))
        if kill is not None:
            handles[kill].cancel()

    for k in range(8):
        # run2 kills run5, run3 kills run0 (already dispatched: no-op),
        # run6 kills the next-instant outsider.
        kill = {2: 5, 3: 0, 6: 8}.get(k)
        handles.append(sim.schedule_at(0.2, cb, f"run{k}", kill))
    handles.append(sim.schedule_at(0.3, cb, "outsider", None))
    sim.run()
    log.append((sim.now, f"end:{sim.events_dispatched}:{sim.pending}"))
    return log


def test_cancellation_inside_drained_run_matches_reference(
        kernel_backend):
    reference = _cancel_inside_run_workload(make_sim("python"))
    candidate = _cancel_inside_run_workload(make_sim(kernel_backend))
    assert candidate == reference


def _preemption_workload(sim: Simulator) -> Log:
    """A run member schedules same-instant work at *lower* priority —
    it must preempt the rest of the run (lower runs first)."""
    log: Log = []

    def cb(tag: str) -> None:
        log.append((sim.now, tag))

    def spawner(tag: str) -> None:
        log.append((sim.now, tag))
        sim.schedule(0.0, cb, f"{tag}/preempt", priority=-5)
        sim.schedule(0.0, cb, f"{tag}/same", priority=0)
        sim.schedule(0.0, cb, f"{tag}/later", priority=9)

    for k in range(4):
        sim.schedule_at(0.1, spawner if k == 1 else cb, f"run{k}")
    sim.run()
    log.append((sim.now, f"end:{sim.events_dispatched}:{sim.pending}"))
    return log


def test_same_instant_lower_priority_preempts_run(kernel_backend):
    reference = _preemption_workload(make_sim("python"))
    candidate = _preemption_workload(make_sim(kernel_backend))
    assert candidate == reference


def _mid_run_reset_workload(sim: Simulator) -> Log:
    """reset() fired from inside a drained run: the rest of the run
    (and everything later) must evaporate, and the kernel must accept
    a fresh schedule/run afterwards."""
    log: Log = []

    def cb(tag: str) -> None:
        log.append((sim.now, tag))

    def resetter(tag: str) -> None:
        log.append((sim.now, tag))
        sim.reset()

    for k in range(6):
        sim.schedule_at(0.4, resetter if k == 2 else cb, f"run{k}")
    sim.schedule(0.8, cb, "after")
    sim.run()
    log.append((sim.now, f"mid:{sim.events_dispatched}:{sim.pending}"))
    sim.schedule(0.05, cb, "act2")
    sim.run()
    log.append((sim.now, f"end:{sim.events_dispatched}:{sim.pending}"))
    return log


def test_mid_run_reset_matches_reference(kernel_backend):
    reference = _mid_run_reset_workload(make_sim("python"))
    candidate = _mid_run_reset_workload(make_sim(kernel_backend))
    assert candidate == reference


class _Boom(Exception):
    pass


def _exception_workload(sim: Simulator) -> Log:
    """A callback raising mid-run must leave the undispatched tail
    pending and the live count exact."""
    log: Log = []

    def cb(tag: str) -> None:
        log.append((sim.now, tag))

    def bomb(tag: str) -> None:
        log.append((sim.now, tag))
        raise _Boom(tag)

    for k in range(6):
        sim.schedule_at(0.2, bomb if k == 3 else cb, f"run{k}")
    with pytest.raises(_Boom):
        sim.run()
    log.append((sim.now, f"mid:{sim.events_dispatched}:{sim.pending}"))
    sim.run()
    log.append((sim.now, f"end:{sim.events_dispatched}:{sim.pending}"))
    return log


def test_exception_mid_run_matches_reference(kernel_backend):
    reference = _exception_workload(make_sim("python"))
    candidate = _exception_workload(make_sim(kernel_backend))
    assert candidate == reference


def test_recycled_handles_stay_safe_under_batching(kernel_backend):
    """Recycling while a same-instant run drains: discarded members
    of a tie run are parked for reuse, held handles never are, and a
    stale handle can never cancel the event that reused its object."""
    sim = make_sim(kernel_backend)
    for _ in range(6):
        sim.schedule_at(0.1, lambda: None)  # a drained run, discarded
    held = sim.schedule_at(0.1, lambda: None)
    sim.run()
    free = sim._queue._free
    assert free, "discarded run members should be parked for reuse"
    assert held not in free, "a held handle must never be recycled"
    assert held.cancelled  # stale after dispatch
    # Reuse a parked event, then abuse the old stale handles: the new
    # event must be untouchable through them.
    parked = free[-1]
    fresh = sim.schedule(0.2, lambda: None)
    assert fresh is parked
    held.cancel()
    assert sim.pending == 1
    sim.run()
    assert sim.pending == 0


def test_pop_and_step_see_staged_entries(kernel_backend):
    """The cold-path maintenance ops: pop() returns the earliest
    live event and step() dispatches it."""
    sim = make_sim(kernel_backend)
    seen: List[str] = []
    sim.schedule(0.2, seen.append, "b")
    sim.schedule(0.1, seen.append, "a")
    event = sim.pop()
    assert event is not None and event.args == ("a",)
    assert sim.pending == 1
    assert sim.step() is True
    assert seen == ["b"]
    assert sim.step() is False
    sim.clear()
    assert sim.pending == 0


# ----------------------------------------------------------------------
# Figure-level equivalence: every backend reproduces the python
# backend's digests bit-for-bit
# ----------------------------------------------------------------------
def _churn_digest() -> str:
    output = call_churn._cell(duration=8.0, seed=0,
                              offered_erlangs=12.0, mean_holding=2.0)
    result = output.value
    parts = [repr(call) for call in result.calls]
    parts.append(repr(output.events))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _fault_digest(outage: float) -> str:
    output = fault_sweep._cell(discipline="leave-in-time",
                               outage=outage, duration=6.0, seed=0)
    parts = [repr(output.value), repr(output.events)]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def test_call_churn_digest_identical_across_backends(monkeypatch):
    digests = {}
    for backend in available_backends():
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
        digests[backend] = _churn_digest()
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("outage", [0.0, 1.0],
                         ids=["clean", "faulted"])
def test_fault_sweep_digest_identical_across_backends(monkeypatch,
                                                      outage):
    digests = {}
    for backend in available_backends():
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
        digests[backend] = _fault_digest(outage)
    assert len(set(digests.values())) == 1, digests


def test_space_parallel_shard_digest_identical_across_backends(
        monkeypatch):
    from repro.sim.parallel import run_serial, run_sharded
    from tests.sim.test_space_parallel import DURATION, build
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "python")
    golden = run_serial(build, DURATION).digest
    for backend in available_backends():
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
        sharded = run_sharded(build, DURATION, partitions=2)
        assert sharded.digest == golden, backend
