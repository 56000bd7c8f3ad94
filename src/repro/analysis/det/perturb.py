"""The schedule-perturbation differ behind ``repro-analyze --perturb``.

The static rules prove structural properties; this module tests the
dynamic one they imply: a disciplined simulation's *observables* are
invariant under every reordering the space-parallel kernel will
introduce.  A scenario is run once unperturbed and then re-run under
four perturbations, diffing observables and a per-event trace:

* **tiebreak** — equal ``(time, priority)`` events dispatch in a
  seeded-shuffled order instead of insertion order.  Insertion order
  is deliberately *not* part of the determinism contract between
  shards: anything that leaks it into an observable is a hidden race.
* **registration** — sessions register in seeded-shuffled order.
  Random streams are named by stable session ids, so registration
  order must be invisible.
* **workers** — the same cells through
  :func:`repro.experiments.parallel.run_cells` with ``workers=1``
  versus ``workers=N``; results must be bit-identical (they are
  collected positionally, so any difference is real shard divergence).
* **partitions** — the scenario's topology through
  :func:`repro.sim.parallel.run_sharded` with seeded-*shuffled*
  (non-contiguous) partition assignments; the merged dispatch digest
  must be bit-identical to the serial reference.  Shuffled shards
  maximize cut edges, so every hop of every session is exercised as a
  cross-shard handoff somewhere in the sweep.

Traces are normalized *within* each timestamp (same-instant records
sorted) before comparison: the perturbations legitimately permute
same-instant dispatch, and the contract is about everything else.  On
divergence the differ minimizes to the first differing event and
reports it by time/category/node/session/packet.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.experiments.common import build_mix_network
from repro.experiments.parallel import Cell, cell_output, run_cells
from repro.sim.events import Event
from repro.sim.kernel import PRIORITY_NORMAL, Simulator
from repro.sim.parallel import run_serial, run_sharded
from repro.sim.rng import RandomStreams
from repro.units import ms, seconds

__all__ = [
    "DEFAULT_MODES",
    "Divergence",
    "Fig07Scenario",
    "PerturbReport",
    "RunResult",
    "Scenario",
    "TiebreakShuffledSimulator",
    "perturb_scenario",
    "scenarios",
]

#: Perturbation modes in the order they run.
DEFAULT_MODES: Tuple[str, ...] = ("tiebreak", "registration", "workers",
                                  "partitions")


class TiebreakShuffledSimulator(Simulator):
    """A kernel whose equal-priority tie-break order is shuffled.

    The production kernel resolves equal ``(time, priority)`` events by
    insertion order (the monotone ``seq``).  This subclass pushes each
    event with a seeded-random key in the ``seq`` slot instead, so ties
    dispatch in a reproducible but *different* order — while the heap
    entry stays the 4-tuple the fused ``run`` loop unpacks.  The key is
    ``(random, seq)`` so entries remain totally ordered and never fall
    through to comparing :class:`Event` objects.  The run-horizon
    sentinel keeps its integer seq; it can never tie with a user event
    because its priority is out of the user range.
    """

    __slots__ = ("_tiebreak_rng",)

    def __init__(self, perturbation_seed: int = 1) -> None:
        super().__init__()
        self._tiebreak_rng = RandomStreams(perturbation_seed).stream(
            "tiebreak-perturbation")

    def _push_shuffled(self, time: float, priority: int,
                       callback: Callable[..., Any],
                       args: Tuple[Any, ...]) -> Event:
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        queue._live += 1
        event = Event(time, priority, seq, callback, args)
        event._queue = queue
        heapq.heappush(queue._heap,
                       (time, priority,
                        (self._tiebreak_rng.random(), seq), event))
        return event

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any, priority: int = PRIORITY_NORMAL) -> Event:
        if delay < 0:
            raise SimulationError(
                f"negative delay {delay!r} scheduling {callback!r}")
        return self._push_shuffled(self.now + delay, priority,
                                   callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any, priority: int = PRIORITY_NORMAL) -> Event:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, clock already at "
                f"{self.now!r}")
        return self._push_shuffled(time, priority, callback, args)


# ----------------------------------------------------------------------
# Run results and diffing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunResult:
    """One scenario execution: named observables + normalized trace."""

    observables: Tuple[Tuple[str, str], ...]
    trace: Tuple[str, ...]
    events: int = 0


def normalized_trace(records: Iterable[Any]) -> Tuple[str, ...]:
    """Trace lines with same-instant records sorted.

    Dispatch order within one timestamp is exactly what the
    perturbations permute on purpose; sorting inside each instant
    leaves every cross-instant ordering and every record's content
    fully significant.
    """
    lines: List[str] = []
    bucket: List[str] = []
    current: Optional[float] = None
    for record in records:
        if record.time != current:
            lines.extend(sorted(bucket))
            bucket = []
            current = record.time
        detail = sorted(record.detail.items())
        bucket.append(f"{record.time!r}|{record.category}|{record.node}"
                      f"|{record.session}|{record.packet}|{detail!r}")
    lines.extend(sorted(bucket))
    return tuple(lines)


@dataclass(frozen=True)
class Divergence:
    """One observed determinism violation, minimized to first evidence."""

    scenario: str
    mode: str
    detail: str
    #: (observable name, baseline value, perturbed value), when an
    #: observable differed.
    observable: Optional[Tuple[str, str, str]] = None
    #: (index, baseline line, perturbed line) of the first diverging
    #: trace event; a missing side reads ``"<absent>"``.
    first_event: Optional[Tuple[int, str, str]] = None

    def render(self) -> str:
        parts = [f"{self.scenario}: DIVERGED under {self.mode} "
                 f"({self.detail})"]
        if self.first_event is not None:
            index, base, pert = self.first_event
            parts.append(f"  first diverging event (#{index}):")
            parts.append(f"    baseline : {base}")
            parts.append(f"    perturbed: {pert}")
        if self.observable is not None:
            name, base, pert = self.observable
            parts.append(f"  observable {name}: {base} != {pert}")
        return "\n".join(parts)


def diff_runs(baseline: RunResult, perturbed: RunResult, *,
              scenario: str, mode: str,
              detail: str) -> Optional[Divergence]:
    """Compare two runs; None when they agree on every contract item."""
    first_event: Optional[Tuple[int, str, str]] = None
    for index, (base, pert) in enumerate(
            zip(baseline.trace, perturbed.trace)):
        if base != pert:
            first_event = (index, base, pert)
            break
    if first_event is None \
            and len(baseline.trace) != len(perturbed.trace):
        index = min(len(baseline.trace), len(perturbed.trace))
        longer = baseline.trace if len(baseline.trace) > index \
            else perturbed.trace
        base = longer[index] if longer is baseline.trace else "<absent>"
        pert = longer[index] if longer is perturbed.trace else "<absent>"
        first_event = (index, base, pert)
    observable: Optional[Tuple[str, str, str]] = None
    for (name, base_value), (_n, pert_value) in zip(
            baseline.observables, perturbed.observables):
        if base_value != pert_value:
            observable = (name, base_value, pert_value)
            break
    if first_event is None and observable is None:
        return None
    return Divergence(scenario=scenario, mode=mode, detail=detail,
                      observable=observable, first_event=first_event)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
class Scenario:
    """One perturbable workload.

    ``run`` executes it once — with an injected kernel and/or a
    shuffled registration order — and returns a :class:`RunResult`.
    ``cells`` (optional) exposes it as a >1-cell sweep for the
    ``workers`` mode; an empty list skips that mode.
    ``partition_probe`` (optional) exposes a fresh-network builder for
    the ``partitions`` mode; ``None`` skips that mode (single-node
    topologies have nothing to shard).
    """

    name = "scenario"

    def run(self, *, sim: Optional[Simulator] = None,
            order_seed: Optional[int] = None,
            horizon: float = 0.25) -> RunResult:
        raise NotImplementedError

    def cells(self, horizon: float = 0.25) -> List[Cell]:
        return []

    def partition_probe(self) -> Optional[Callable[[], Any]]:
        return None


#: The fig07 target session mirrored here (importing the figure module
#: would drag matplotlib-adjacent report code into the analyzer path).
_FIG07_TARGET_SESSION = "a-j/1"

#: Two mid-sweep a_OFF points for the workers-mode mini sweep.
_FIG07_A_OFF_POINTS_S = (ms(88.0), ms(150.9))


def _mix_observables(network: Any, session_id: str
                     ) -> Tuple[Tuple[str, str], ...]:
    sink = network.sink(session_id)
    return (
        ("received", repr(sink.received)),
        ("bits_received", repr(sink.bits_received)),
        ("max_delay", repr(sink.max_delay)),
        ("min_delay", repr(sink.min_delay)),
        ("jitter", repr(sink.jitter)),
        ("mean_delay", repr(sink.delay.mean)),
        ("events_dispatched", repr(network.sim.events_dispatched)),
        ("clock", repr(network.sim.now)),
    )


def _fig07_probe_cell(a_off: float, horizon: float) -> Any:
    """One MIX cell for the workers mode (module-level: picklable)."""
    network = build_mix_network(a_off, seed=0)
    network.run(seconds(horizon))
    return cell_output(network,
                       _mix_observables(network, _FIG07_TARGET_SESSION),
                       horizon)


def _fig07_partition_network() -> Any:
    """Tracer-enabled MIX build for the partitions mode.

    No kernel or order injection here: the space-parallel runner builds
    each shard itself, and the digest contract is against a serial run
    of this very builder.  The tracer is on because the dispatch digest
    is only as strong as the trace it folds in.
    """
    network = build_mix_network(ms(88.0), seed=0)
    network.tracer.enabled = True
    return network


class Fig07Scenario(Scenario):
    """A shortened Figure-7 MIX cell — the repo's canonical workload.

    The same cell the dispatch-digest gates pin, so a divergence here
    is directly comparable against the bit-identity tests.
    """

    name = "fig07"

    def run(self, *, sim: Optional[Simulator] = None,
            order_seed: Optional[int] = None,
            horizon: float = 0.25) -> RunResult:
        network = build_mix_network(ms(88.0), seed=0, sim=sim,
                                    order_seed=order_seed)
        network.tracer.enabled = True
        network.run(seconds(horizon))
        return RunResult(
            observables=_mix_observables(network, _FIG07_TARGET_SESSION),
            trace=normalized_trace(network.tracer.records),
            events=network.sim.events_dispatched)

    def cells(self, horizon: float = 0.25) -> List[Cell]:
        return [Cell(label=f"fig07-perturb/{a_off:.4f}",
                     fn=_fig07_probe_cell,
                     kwargs={"a_off": a_off, "horizon": horizon})
                for a_off in _FIG07_A_OFF_POINTS_S]

    def partition_probe(self) -> Optional[Callable[[], Any]]:
        return _fig07_partition_network


def scenarios() -> dict:
    """Registered perturbable scenarios by name."""
    return {Fig07Scenario.name: Fig07Scenario}


# ----------------------------------------------------------------------
# The partitions mode
# ----------------------------------------------------------------------
def _shuffled_partition(names: Sequence[str], parts: int,
                        seed: int) -> Tuple[frozenset, ...]:
    """Deal a seeded shuffle of ``names`` round-robin into ``parts``.

    Deliberately *not* contiguous: a shuffled deal turns nearly every
    link into a cut edge, so the conservative-sync handoff path — not
    locality — is what keeps the digest identical.
    """
    shuffled = list(names)
    RandomStreams(seed).stream("partition-perturbation").shuffle(shuffled)
    return tuple(frozenset(shuffled[index::parts])
                 for index in range(parts))


def _sharded_run_result(result: Any) -> RunResult:
    """Adapt a :class:`~repro.sim.parallel.ParallelRunResult` for
    :func:`diff_runs`: the digest is the one observable, the merged
    payload trace (already instant-normalized by the merge sort) is the
    per-event evidence for minimization."""
    return RunResult(
        observables=(("dispatch digest", repr(result.digest)),),
        trace=tuple(result.payload["trace"]),
        events=result.events_dispatched)


# ----------------------------------------------------------------------
# The differ
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PerturbReport:
    """All perturbation runs of one scenario, plus their verdict."""

    scenario: str
    modes: Tuple[str, ...]
    runs: int
    events: int
    divergences: Tuple[Divergence, ...]

    @property
    def deterministic(self) -> bool:
        return not self.divergences

    def render(self) -> str:
        if self.deterministic:
            return (f"{self.scenario}: deterministic under "
                    f"{'/'.join(self.modes)} ({self.runs} runs, "
                    f"{self.events} events)")
        return "\n".join(d.render() for d in self.divergences)


def perturb_scenario(scenario: Scenario,
                     modes: Sequence[str] = DEFAULT_MODES, *,
                     horizon: float = 0.25,
                     workers: int = 4,
                     rounds: int = 2) -> PerturbReport:
    """Run ``scenario`` under each perturbation mode and diff.

    ``rounds`` seeds per single-run mode (tiebreak, registration, and
    the shuffle seeds of partitions); ``workers`` is the pool width of
    the workers mode.  One unperturbed baseline is shared by all
    single-run modes; the partitions mode diffs against its own serial
    :func:`~repro.sim.parallel.run_serial` reference (a different
    observable set — the merged dispatch digest).
    """
    unknown = [mode for mode in modes if mode not in DEFAULT_MODES]
    if unknown:
        raise ValueError(f"unknown perturbation mode(s): {unknown}")
    divergences: List[Divergence] = []
    runs = 0
    events = 0
    baseline: Optional[RunResult] = None
    if "tiebreak" in modes or "registration" in modes:
        baseline = scenario.run(horizon=horizon)
        runs += 1
        events += baseline.events
    if "tiebreak" in modes and baseline is not None:
        for seed in range(1, rounds + 1):
            perturbed = scenario.run(
                sim=TiebreakShuffledSimulator(seed), horizon=horizon)
            runs += 1
            events += perturbed.events
            divergence = diff_runs(baseline, perturbed,
                                   scenario=scenario.name,
                                   mode="tiebreak",
                                   detail=f"perturbation seed {seed}")
            if divergence is not None:
                divergences.append(divergence)
    if "registration" in modes and baseline is not None:
        for seed in range(1, rounds + 1):
            perturbed = scenario.run(order_seed=seed, horizon=horizon)
            runs += 1
            events += perturbed.events
            divergence = diff_runs(baseline, perturbed,
                                   scenario=scenario.name,
                                   mode="registration",
                                   detail=f"order seed {seed}")
            if divergence is not None:
                divergences.append(divergence)
    if "workers" in modes:
        cells = scenario.cells(horizon=horizon)
        if len(cells) > 1:
            serial = run_cells(f"{scenario.name}-perturb-serial",
                               cells, workers=1)
            pooled = run_cells(f"{scenario.name}-perturb-pool",
                               cells, workers=workers)
            runs += 2 * len(cells)
            for cell, base, pert in zip(cells, serial, pooled):
                if repr(base) == repr(pert):
                    continue
                divergences.append(Divergence(
                    scenario=scenario.name, mode="workers",
                    detail=f"workers=1 vs workers={workers}, "
                           f"cell {cell.label!r}",
                    observable=("cell value", repr(base), repr(pert))))
    if "partitions" in modes:
        builder = scenario.partition_probe()
        if builder is not None:
            serial = _sharded_run_result(run_serial(builder, horizon))
            runs += 1
            events += serial.events
            names = list(builder().nodes)
            for seed in range(1, rounds + 1):
                parts = 2 + (seed - 1) % 3
                partition = _shuffled_partition(names, parts, seed)
                sharded = _sharded_run_result(run_sharded(
                    builder, horizon, partition=partition))
                runs += 1
                events += sharded.events
                divergence = diff_runs(
                    serial, sharded, scenario=scenario.name,
                    mode="partitions",
                    detail=f"shuffle seed {seed}, {parts} shards")
                if divergence is not None:
                    divergences.append(divergence)
    return PerturbReport(scenario=scenario.name, modes=tuple(modes),
                         runs=runs, events=events,
                         divergences=tuple(divergences))
