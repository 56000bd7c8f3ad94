"""Repeatable kernel-throughput measurement backing the BENCH gate.

The workload is the same self-rescheduling tick spin as
``benchmarks/test_simulator_throughput.py`` — pure event dispatch, no
network on top — so the number it produces is the substrate's ceiling,
not any experiment's.  ``measure()`` runs it ``best_of`` times and
keeps the fastest run: best-of filters scheduler noise and transient
machine load, which is what a regression gate wants (the *capability*
of the kernel, not the luck of one run).

Re-record the committed gate baseline after intentional kernel
changes::

    PYTHONPATH=src python -m repro.analysis.throughput

which rewrites ``benchmarks/baselines/BENCH_throughput.json``.  The
tier-1 smoke test measures a short spin and gates it against that file
with a generous regression ceiling (CI machines vary; the ceiling only
catches order-of-magnitude slips like an accidental O(n) scan in the
dispatch loop).

``--kernel-backend <name>`` switches to the per-backend mode: the same
spin fanned out to ``BACKEND_FANOUT`` concurrent tick chains (the
same-timestamp-run shape of the heavy-traffic regime), dispatched on
the named kernel backend, recorded as ``BENCH_throughput_<name>.json``
with its own committed baseline.  Re-record *all* backends
back-to-back when touching any of them — the committed numbers carry
the cross-backend speedup claims in docs/performance.md::

    for b in python compiled; do
        PYTHONPATH=src python -m repro.analysis.throughput \\
            --kernel-backend $b
    done
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Tuple

from repro.analysis import bench
from repro.units import ms, seconds

__all__ = ["EXPERIMENT", "BASELINE", "SCALING_EXPERIMENT",
           "SCALING_BASELINE", "KERNEL_EXPERIMENTS", "BACKEND_FANOUT",
           "BACKEND_HORIZON", "kernel_baseline", "kernel_spin",
           "measure", "measure_backend", "measure_sessions", "main"]

#: Experiment name stamped into the record (file: BENCH_throughput.json).
EXPERIMENT = "throughput"

#: The committed gate baseline, relative to the repository root.
BASELINE = Path("benchmarks") / "baselines" / "BENCH_throughput.json"

#: Per-kernel-backend experiment names (``--kernel-backend`` mode):
#: each backend gets its own record and committed baseline, so `bench
#: compare` never crosses backends (it refuses mismatched experiment
#: names).  These run the *fan-out* spin — ``BACKEND_FANOUT``
#: concurrent tick chains, the same-timestamp-run shape of the
#: heavy-traffic regime — unlike the single-chain ``throughput``
#: record above, which stays byte-identical to its PR 3 definition.
KERNEL_EXPERIMENTS = {
    "python": "throughput_python",
    "compiled": "throughput_compiled",
}

#: Concurrent tick chains of the per-backend fan-out spin.  1024 makes
#: every instant a 1024-event same-(time, priority) run over a
#: 10-deep heap.
BACKEND_FANOUT = 1024

#: Simulated seconds per fan-out run: 0.25 s x 1024 chains at one
#: event per 0.1 ms is ~2.6M dispatches per measurement — enough to
#: swamp startup noise without slowing the gate.
BACKEND_HORIZON = seconds(0.25)

#: The ``--sessions`` scaling mode's record name and committed
#: baseline (one heavy-traffic cell: events/sec and peak RSS at a
#: given concurrent-session count).
SCALING_EXPERIMENT = "throughput_scaling"
SCALING_BASELINE = (Path("benchmarks") / "baselines"
                    / "BENCH_throughput_scaling.json")

#: Load and seed pinned for the scaling measurement, so records at
#: different session counts (and on different days) stay comparable.
SCALING_RHO = 0.95
SCALING_SEED = 0

#: Tick interval of the spin workload: 0.1 ms, i.e. 10 001 events per
#: simulated second (plus/minus one from float accumulation).
TICK = ms(0.1)

DEFAULT_HORIZON = seconds(1.0)
DEFAULT_BEST_OF = 7


def kernel_baseline(backend: str) -> Path:
    """Committed gate baseline of one backend's fan-out record."""
    return (Path("benchmarks") / "baselines"
            / f"BENCH_{KERNEL_EXPERIMENTS[backend]}.json")


def kernel_spin(horizon: float = DEFAULT_HORIZON, *,
                fanout: int = 1,
                backend: Optional[str] = None) -> Tuple[int, float]:
    """One timed spin; returns ``(events_dispatched, wall_seconds)``.

    ``fanout`` independent tick chains start at t=0; the default of 1
    is the original single-chain spin.  ``backend`` selects the kernel
    dispatch engine (None: the ambient default).
    """
    from repro.sim.kernel import Simulator

    watch = bench.Stopwatch()
    sim = Simulator(backend=backend)

    def tick() -> None:
        if sim.now < horizon:
            sim.schedule(TICK, tick)  # repro: disable=untiebroken-event-transitive -- pure-dispatch benchmark; the kwarg would perturb the measured workload

    for _ in range(fanout):
        sim.schedule(0.0, tick)  # repro: disable=untiebroken-event-transitive -- pure-dispatch benchmark; the kwarg would perturb the measured workload
    sim.run()
    return sim.events_dispatched, watch.elapsed()


def measure(best_of: int = DEFAULT_BEST_OF,
            horizon: float = DEFAULT_HORIZON) -> bench.BenchRecord:
    """Best-of-``best_of`` kernel throughput as a :class:`BenchRecord`."""
    if best_of < 1:
        raise ValueError(f"best_of must be >= 1, got {best_of}")
    best: Optional[Tuple[int, float]] = None
    for _ in range(best_of):
        events, wall = kernel_spin(horizon)
        if best is None or events * best[1] > best[0] * wall:
            best = (events, wall)
    assert best is not None
    events, wall = best
    return bench.make_record(
        EXPERIMENT, wall_time_s=wall, events_dispatched=events,
        workers=1, simulated_s=horizon, cells=1)


def measure_backend(backend: str, best_of: int = DEFAULT_BEST_OF,
                    horizon: float = BACKEND_HORIZON,
                    fanout: int = BACKEND_FANOUT) -> bench.BenchRecord:
    """Best-of fan-out throughput of one kernel backend.

    The record's experiment name is backend-specific
    (``throughput_<backend>``) so ``bench compare`` gates each backend
    against its own committed baseline and refuses cross-backend
    comparisons.  Re-record all backends back-to-back on one machine —
    the committed numbers carry the cross-backend speedup claim in
    docs/performance.md, which only holds within a single session.
    """
    if backend not in KERNEL_EXPERIMENTS:
        raise ValueError(
            f"unknown kernel backend {backend!r}; expected one of "
            f"{', '.join(sorted(KERNEL_EXPERIMENTS))}")
    if best_of < 1:
        raise ValueError(f"best_of must be >= 1, got {best_of}")
    best: Optional[Tuple[int, float]] = None
    for _ in range(best_of):
        events, wall = kernel_spin(horizon, fanout=fanout,
                                   backend=backend)
        if best is None or events * best[1] > best[0] * wall:
            best = (events, wall)
    assert best is not None
    events, wall = best
    return bench.make_record(
        KERNEL_EXPERIMENTS[backend], wall_time_s=wall,
        events_dispatched=events, workers=1, simulated_s=horizon,
        cells=1, kernel_backend=backend)


def measure_sessions(sessions: int, *, backend: str = "soa",
                     horizon: float = DEFAULT_HORIZON
                     ) -> bench.BenchRecord:
    """End-to-end throughput *and* peak RSS at a session count.

    Unlike :func:`measure`'s bare kernel spin, this runs one
    heavy-traffic cell — a single Leave-in-Time node at load
    ``SCALING_RHO`` carrying ``sessions`` concurrent sessions under
    ``backend`` — and stamps both ``sessions`` and ``peak_rss_bytes``
    into the record, so the committed baseline gates memory growth per
    session alongside events/sec (``bench compare
    --max-rss-regression``).  Run it in a fresh interpreter for a
    clean RSS reading (the CLI entry point is one).
    """
    if sessions < 1:
        raise ValueError(f"sessions must be >= 1, got {sessions}")
    # Lazy import: analysis must not pull the experiment stack (and
    # its numpy-optional machinery) for the plain kernel-spin mode.
    from repro.experiments.heavy_traffic import _cell
    output = _cell(topology="single", discipline="leave-in-time",
                   backend=backend, sessions=sessions,
                   rho=SCALING_RHO, duration=horizon,
                   seed=SCALING_SEED)
    row = output.value
    return bench.make_record(
        SCALING_EXPERIMENT, wall_time_s=row.wall_s,
        events_dispatched=row.events, workers=1, simulated_s=horizon,
        cells=1, sessions=sessions, peak_rss=row.peak_rss_bytes)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.throughput",
        description="Measure kernel dispatch throughput and write the "
                    "BENCH gate record.")
    parser.add_argument("--best-of", type=int, default=DEFAULT_BEST_OF,
                        metavar="N",
                        help="timed runs; the fastest is recorded "
                             f"(default: {DEFAULT_BEST_OF})")
    parser.add_argument("--horizon", type=float, default=None,
                        metavar="SECONDS",
                        help="simulated seconds per run (default: 1)")
    parser.add_argument("--sessions", type=int, default=None,
                        metavar="N",
                        help="scaling mode: run one single-node "
                             "heavy-traffic cell with N concurrent "
                             "sessions and record events/sec plus "
                             "peak RSS (file: "
                             "BENCH_throughput_scaling.json)")
    parser.add_argument("--state-backend", choices=["objects", "soa"],
                        default="soa",
                        help="state backend for --sessions mode "
                             "(default: soa)")
    parser.add_argument("--kernel-backend",
                        choices=sorted(KERNEL_EXPERIMENTS),
                        default=None,
                        help="per-backend mode: measure this kernel "
                             "dispatch engine on the fan-out spin and "
                             "write its own gate record (file: "
                             "BENCH_throughput_<backend>.json)")
    parser.add_argument("--fanout", type=int, default=BACKEND_FANOUT,
                        metavar="N",
                        help="concurrent tick chains in "
                             "--kernel-backend mode "
                             f"(default: {BACKEND_FANOUT})")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (default: "
                             f"{BASELINE.parent})")
    args = parser.parse_args(argv)
    if args.kernel_backend is not None:
        horizon = BACKEND_HORIZON if args.horizon is None \
            else args.horizon
        record = measure_backend(args.kernel_backend, args.best_of,
                                 horizon, args.fanout)
        out = args.out if args.out is not None else str(BASELINE.parent)
        path = bench.write_record(record, out)
        print(f"{record.experiment}: "
              f"{record.events_per_sec:,.0f} events/s "
              f"({record.events_dispatched} events, fanout "
              f"{args.fanout}, {record.wall_time_s:.4f} s wall) "
              f"-> {path}")
        return 0
    horizon = DEFAULT_HORIZON if args.horizon is None else args.horizon
    if args.sessions is not None:
        record = measure_sessions(args.sessions,
                                  backend=args.state_backend,
                                  horizon=horizon)
        out = args.out if args.out is not None \
            else str(SCALING_BASELINE.parent)
        path = bench.write_record(record, out)
        rss = record.peak_rss_bytes
        print(f"{record.experiment}: {record.sessions} sessions "
              f"({args.state_backend}), "
              f"{record.events_per_sec:,.0f} events/s, peak RSS "
              f"{rss / 1e6:,.1f} MB -> {path}"
              if rss else
              f"{record.experiment}: {record.sessions} sessions, "
              f"{record.events_per_sec:,.0f} events/s -> {path}")
        return 0
    record = measure(args.best_of, horizon)
    out = args.out if args.out is not None else str(BASELINE.parent)
    path = bench.write_record(record, out)
    print(f"{record.experiment}: {record.events_per_sec:,.0f} events/s "
          f"({record.events_dispatched} events in "
          f"{record.wall_time_s:.4f} s wall) -> {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
