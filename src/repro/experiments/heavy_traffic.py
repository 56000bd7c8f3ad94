"""Heavy-traffic scaling: LiT vs EDD vs FCFS as ``ρ → 1`` at scale.

The paper's experiments stop at 116 sessions; the heavy-traffic theory
the discipline feeds into (Kruk, Lehoczky & Shreve's state-space
collapse for EDF-like queues) talks about the regime where a *single*
station carries an enormous session population and its load approaches
one.  This experiment pushes the simulator there: one bottleneck node
(and a short tandem variant) carrying 10^4-10^5 concurrent sessions,
each reserving an equal share ``C/N`` of the link, fed by a superposed
Poisson process at load ``ρ``.

Each backend runs its *characteristic construction*, because that is
what the comparison is about:

* ``objects`` — the reference pipeline exactly as every paper-scale
  experiment assembles it: one :class:`~repro.traffic.poisson
  .PoissonSource` (own named RNG stream, own pending timer event) and
  one :class:`~repro.net.sink.Sink` per session.
* ``soa`` — the scale pipeline: one
  :class:`~repro.traffic.superposed.SuperposedPoissonSource` clock
  marking arrivals uniformly across sessions (statistically identical
  by Poisson superposition, two RNG streams total, one pending event)
  and one shared sink.

So the BENCH numbers answer "what does moving to the scale path buy"
end to end — per-object session state *and* per-session source/sink
machinery versus tabulated state and aggregate traffic — not merely
the state-table delta.  The backends draw different random numbers
and are not digest-comparable here; bit-identity between backends is
pinned where both run the identical construction
(``tests/sim/test_state_backends.py``).

Two measurements per cell, directly comparable across disciplines
because cells of one backend replay the *same* arrival sample path
(source streams are named independently of the discipline):

* **Lead-time profile** — the bottleneck scheduler's lateness tally
  (``finish − deadline`` per packet; lead time is its negation).
  State-space collapse predicts the deadline disciplines (LiT, EDD)
  shape this profile while FCFS — whose "deadline" is its arrival
  instant, making lateness the sojourn time — does not.
* **Workload conservation** — all three disciplines are
  work-conserving here (no jitter control, so LiT holds nothing), so
  the server's busy time must be sample-path identical across
  disciplines; :meth:`HeavyTrafficResult.workload_conserved` checks
  the utilization spread.

Each cell runs in a **fresh process** so its ``peak_rss_bytes`` (a
process-wide high-water mark) is attributable to that cell alone —
this is what makes the objects-vs-soa memory comparison in
``BENCH_heavy_traffic.json`` honest.  The backend sweep defaults to
both backends when numpy is available; this experiment compares
*cost*: events/sec and peak RSS per session count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import bench
from repro.analysis.report import format_table
from repro.errors import ConfigurationError
from repro.experiments.common import PAPER_PACKET_BITS
from repro.experiments.parallel import Cell, CellOutput, pool_available
from repro.net.session import Session
from repro.net.sink import Sink
from repro.net.topology import PaperTopology
from repro.sched.edd import DelayEDD
from repro.sched.fcfs import FCFS
from repro.sched.leave_in_time import LeaveInTime
from repro.sim.backends import resolve_backend
from repro.sim.collector import collector_paused
from repro.traffic.poisson import PoissonSource
from repro.traffic.superposed import SuperposedPoissonSource
from repro.units import T1_RATE_BPS, to_ms

__all__ = [
    "HeavyTrafficRow",
    "HeavyTrafficResult",
    "DEFAULT_SESSIONS",
    "DEFAULT_RHOS",
    "cells",
    "run",
    "main",
]

_DISCIPLINES = (
    ("leave-in-time", LeaveInTime),
    ("delay-edd", DelayEDD),
    ("fcfs", FCFS),
)

#: Topology label -> node count ("single" station and a short tandem).
_TOPOLOGIES: Dict[str, int] = {"single": 1, "tandem": 3}

#: Default concurrent-session count (the 10^4 end of the target range;
#: the CI smoke and the committed BENCH record use this, the 10^5 end
#: is one ``--sessions``-style parameter away).
DEFAULT_SESSIONS = 10_000

#: Default load sweep approaching the heavy-traffic limit.
DEFAULT_RHOS = (0.90, 0.99)


@dataclass
class HeavyTrafficRow:
    """One (topology, discipline, backend, ρ) cell's measurements."""

    topology: str
    discipline: str
    backend: str
    sessions: int
    rho: float
    packets: int
    events: int
    wall_s: float
    events_per_sec: float
    peak_rss_bytes: Optional[int]
    utilization: float
    mean_delay_ms: float
    #: Bottleneck lateness (finish − deadline) statistics in ms; lead
    #: time is the negation.  For FCFS, deadline = arrival, so this is
    #: the bottleneck sojourn time.
    mean_lateness_ms: float
    max_lateness_ms: float
    lateness_std_ms: float


def _backends_default() -> Tuple[str, ...]:
    """Both backends when numpy is present; objects alone otherwise.

    ``REPRO_STATE_BACKEND`` (or the CLI's ``--state-backend``) pins the
    sweep to that single backend.
    """
    import os
    pinned = os.environ.get("REPRO_STATE_BACKEND", "").strip()
    if pinned:
        return (pinned,)
    from repro.net.session_table import numpy_available
    if numpy_available():
        return ("objects", "soa")
    return ("objects",)


def _cell(*, topology: str, discipline: str, backend: str,
          sessions: int, rho: float, duration: float,
          seed: int) -> CellOutput:
    """One isolated heavy-traffic simulation, RSS measured in-cell."""
    watch = bench.Stopwatch()
    factory = dict(_DISCIPLINES)[discipline]
    node_count = _TOPOLOGIES[topology]
    network = PaperTopology(factory, node_count=node_count, seed=seed,
                            state_backend=backend).build()
    route = [f"n{i}" for i in range(1, node_count + 1)]
    per_session_rate = T1_RATE_BPS / sessions
    # Per-session mean interarrival L·N / (ρ·C) seconds, i.e. an
    # aggregate arrival rate of ρ·C/L packets/s.
    mean_per_session = (PAPER_PACKET_BITS * sessions
                        / (rho * T1_RATE_BPS))
    aggregate = backend == "soa"
    shared_sink = Sink("aggregate", keep_samples=False) \
        if aggregate else None
    members: List[Session] = []
    # The build allocates millions of long-lived objects, none of them
    # garbage; keep the cyclic collector out of it as Network.run does.
    with collector_paused():
        for index in range(sessions):
            session = Session(f"h{index}", rate=per_session_rate,
                              route=route, l_max=PAPER_PACKET_BITS)
            network.add_session(session, sink=shared_sink,
                                keep_samples=False)
            members.append(session)
            if not aggregate:
                PoissonSource(network, session,
                              length=PAPER_PACKET_BITS,
                              mean=mean_per_session)
        if aggregate:
            SuperposedPoissonSource(network, members,
                                    length=PAPER_PACKET_BITS,
                                    mean=mean_per_session)
        network.run(duration)
    if aggregate:
        received = shared_sink.received
        mean_delay = shared_sink.delay.mean
    else:
        # Sorted keys: float summation order must not depend on dict
        # order (the determinism analyzer's unordered-merge rule).
        per_session = [network.sinks[sid]
                       for sid in sorted(network.sinks)]
        received = sum(sink.received for sink in per_session)
        total = sum(sink.delay.mean * sink.delay.count
                    for sink in per_session)
        mean_delay = total / received if received else 0.0
    bottleneck = network.nodes[route[-1]]
    lateness = bottleneck.scheduler.lateness
    wall = watch.elapsed()
    events = network.sim.events_dispatched
    row = HeavyTrafficRow(
        topology=topology,
        discipline=discipline,
        backend=backend,
        sessions=sessions,
        rho=rho,
        packets=received,
        events=events,
        wall_s=wall,
        events_per_sec=events / wall if wall > 0 else 0.0,
        peak_rss_bytes=bench.peak_rss_bytes(),
        utilization=bottleneck.utilization(network.sim.now),
        mean_delay_ms=to_ms(mean_delay),
        mean_lateness_ms=to_ms(lateness.mean),
        max_lateness_ms=to_ms(lateness.maximum or 0.0),
        lateness_std_ms=to_ms(lateness.stddev),
    )
    return CellOutput(value=row, events=events, simulated=duration)


@dataclass
class HeavyTrafficResult:
    """The sweep's rows plus the conservation / collapse summaries."""

    duration: float
    seed: int
    rows: List[HeavyTrafficRow]

    def workload_conserved(self, tolerance: float = 0.02) -> bool:
        """Utilization spread across disciplines within ``tolerance``.

        All cells sharing (topology, backend, ρ) replay the same
        arrival sample path with work-conserving disciplines, so their
        busy times may differ only by edge effects (the packets still
        in service when the horizon ends).
        """
        groups: Dict[Tuple[str, str, float], List[float]] = {}
        for row in self.rows:
            key = (row.topology, row.backend, row.rho)
            groups.setdefault(key, []).append(row.utilization)
        return all(max(utils) - min(utils) <= tolerance
                   for utils in groups.values()
                   if len(utils) > 1)

    def table(self) -> str:
        return format_table(
            ["topo", "discipline", "backend", "rho", "pkts",
             "events/s", "util", "delay(ms)", "lead mean(ms)",
             "rss(MB)"],
            [(r.topology, r.discipline, r.backend, f"{r.rho:.2f}",
              r.packets, f"{r.events_per_sec:,.0f}",
              f"{r.utilization:.3f}", f"{r.mean_delay_ms:.3f}",
              f"{-r.mean_lateness_ms:.3f}",
              f"{r.peak_rss_bytes / 1e6:.1f}"
              if r.peak_rss_bytes else "n/a")
             for r in self.rows],
            title=f"Heavy traffic — {self.rows[0].sessions if self.rows else 0} "
                  f"sessions, ρ → 1 ({self.duration:g}s simulated, "
                  f"seed {self.seed}; workload conserved: "
                  f"{'yes' if self.workload_conserved() else 'NO'})")

    def to_csv(self, path) -> None:
        """Write the sweep rows in plot-ready CSV form."""
        from repro.analysis.export import write_rows_csv
        write_rows_csv(path, self.rows)


def cells(*, duration: float, seed: int, sessions: int,
          rhos: Sequence[float],
          backends: Sequence[str],
          topologies: Sequence[str]) -> List[Cell]:
    """The declarative sweep: topology × discipline × backend × ρ."""
    unknown = [t for t in topologies if t not in _TOPOLOGIES]
    if unknown:
        raise ConfigurationError(
            f"unknown heavy-traffic topologies {unknown}; "
            f"expected subset of {sorted(_TOPOLOGIES)}")
    return [Cell(label=f"heavy[{topology},{discipline},{backend},"
                       f"rho={rho:g}]",
                 fn=_cell,
                 kwargs={"topology": topology, "discipline": discipline,
                         "backend": backend, "sessions": sessions,
                         "rho": rho, "duration": duration,
                         "seed": seed})
            for topology in topologies
            for discipline, _ in _DISCIPLINES
            for backend in backends
            for rho in rhos]


def _run_isolated(cell_list: List[Cell]) -> List[CellOutput]:
    """Each cell in a fresh single-use process (accurate per-cell RSS).

    ``ru_maxrss`` is a process-lifetime high-water mark, so reusing a
    process would let a big objects-backend cell inflate every later
    soa cell's reading.  Falls back to in-process execution (RSS then
    reflects the largest cell so far) where pools are unavailable.
    """
    outputs: List[CellOutput] = []
    if not pool_available():
        for cell in cell_list:
            outputs.append(cell.fn(**cell.kwargs))
        return outputs
    from concurrent.futures import ProcessPoolExecutor
    for cell in cell_list:
        with ProcessPoolExecutor(max_workers=1) as pool:
            outputs.append(pool.submit(cell.fn, **cell.kwargs).result())
    return outputs


def run(*, duration: float = 2.0, seed: int = 0,
        sessions: int = DEFAULT_SESSIONS,
        rhos: Sequence[float] = DEFAULT_RHOS,
        backends: Optional[Sequence[str]] = None,
        topologies: Sequence[str] = ("single", "tandem"),
        workers: Optional[int] = None) -> HeavyTrafficResult:
    """Run the heavy-traffic sweep and emit its BENCH record.

    ``workers`` is accepted for CLI uniformity but each cell always
    runs in its own fresh process (see :func:`_run_isolated`) — RSS
    attribution requires it.
    """
    del workers  # isolation policy is fixed; see _run_isolated
    if backends is None:
        backends = _backends_default()
    cell_list = cells(duration=duration, seed=seed, sessions=sessions,
                      rhos=rhos, backends=backends,
                      topologies=topologies)
    watch = bench.Stopwatch()
    outputs = _run_isolated(cell_list)
    rows = [output.value for output in outputs]
    rss_values = [row.peak_rss_bytes for row in rows
                  if row.peak_rss_bytes]
    bench.emit(bench.make_record(
        "heavy_traffic",
        wall_time_s=watch.elapsed(),
        events_dispatched=sum(output.events for output in outputs),
        workers=1,
        simulated_s=sum(output.simulated for output in outputs),
        cells=len(cell_list),
        sessions=sessions,
        peak_rss=max(rss_values) if rss_values else None,
        kernel_backend=resolve_backend(),
        state_backend=backends[0] if len(set(backends)) == 1 else None,
    ))
    return HeavyTrafficResult(duration=duration, seed=seed, rows=rows)


def main() -> None:  # pragma: no cover - CLI entry
    print(run().table())


if __name__ == "__main__":  # pragma: no cover
    main()
