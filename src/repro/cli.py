"""Command-line entry point: regenerate any paper figure or table.

Examples::

    leave-in-time figure07 --duration 20
    leave-in-time figure09 --duration 60 --seed 3
    leave-in-time section4
    leave-in-time all --duration 10        # quick pass over everything
    leave-in-time figure07 --workers 4     # shard the sweep
    python -m repro figure08               # equivalent module form

Durations default to laptop-friendly values; pass ``--full`` for the
paper's 5- or 10-minute horizons (slow in pure Python). Sweeps shard
their cells across ``--workers`` processes (default: all cores but
one); the merged tables are bit-identical to a serial run. Every run
writes a ``BENCH_<experiment>.json`` telemetry record (see
``repro.analysis.bench``) into ``--bench-dir``.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Callable, Dict, Optional

from repro.analysis import bench
from repro.analysis.verify.sanitizer import SanitizerError
from repro.experiments.parallel import default_workers

from repro.experiments import (
    ablation,
    call_churn,
    fault_sweep,
    figure07,
    figure08,
    figure09,
    figure10,
    figure11,
    figure12_13,
    figure14_17,
    firewall,
    heavy_traffic,
    hop_scaling,
    md1_validation,
    regulator_comparison,
    saturation,
    section4,
    space_parallel,
)

__all__ = ["main", "build_parser"]

#: Experiment name -> (runner accepting duration/seed, paper duration).
_SIMULATED: Dict[str, tuple] = {
    "figure07": (figure07.run, 300.0),
    "figure08": (figure08.run, 600.0),
    "figure09": (figure09.run, 600.0),
    "figure10": (figure10.run, 600.0),
    "figure11": (figure11.run, 600.0),
    "figure12_13": (figure12_13.run, 600.0),
    "figure14_17": (figure14_17.run, 300.0),
    "fault_sweep": (fault_sweep.run, 60.0),
    "firewall": (firewall.run, 60.0),
    "heavy_traffic": (heavy_traffic.run, 20.0),
    "ablation": (ablation.run, 30.0),
    "hop_scaling": (hop_scaling.run, 60.0),
    "call_churn": (call_churn.run, 300.0),
    "md1_validation": (md1_validation.run, 600.0),
    "saturation": (saturation.run, 120.0),
    "regulator_comparison": (regulator_comparison.run, 120.0),
    "space_parallel": (space_parallel.run, 10.0),
}

#: Purely analytic experiments (no duration/seed).
_ANALYTIC: Dict[str, Callable] = {
    "section4": section4.run,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leave-in-time",
        description="Reproduce the figures and tables of Figueira & "
                    "Pasquale, 'Leave-in-Time' (SIGCOMM '95).")
    choices = sorted(_SIMULATED) + sorted(_ANALYTIC) + ["all"]
    parser.add_argument("experiment", choices=choices,
                        help="which figure/table to regenerate")
    parser.add_argument("--duration", type=float, default=None,
                        help="simulated seconds (default: quick preset)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master RNG seed")
    parser.add_argument("--full", action="store_true",
                        help="use the paper's full run durations")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write plot-ready CSV files into DIR "
                             "(for experiments that support export)")
    parser.add_argument("--workers", type=int, default=None,
                        help="processes to shard sweep cells across "
                             "(default: all cores but one); results "
                             "are identical at any worker count")
    parser.add_argument("--partitions", type=int, default=None,
                        help="space-parallel shard count for "
                             "experiments that split one topology "
                             "across processes (repro.sim.parallel); "
                             "digests are identical at any count")
    parser.add_argument("--bench-dir", metavar="DIR", default=None,
                        help="directory for BENCH_<experiment>.json "
                             "telemetry records (default: cwd)")
    parser.add_argument("--profile", nargs="?", const=25, type=int,
                        default=None, metavar="N",
                        help="run under cProfile and print the top N "
                             "functions by cumulative time "
                             "(default N: 25)")
    parser.add_argument("--state-backend", choices=["objects", "soa"],
                        default=None,
                        help="per-session hot-state storage: 'objects' "
                             "(reference) or 'soa' (struct-of-arrays "
                             "SessionTable, needs the [scale] extra); "
                             "sets REPRO_STATE_BACKEND so sweep worker "
                             "processes inherit it (default: objects)")
    parser.add_argument("--kernel-backend",
                        choices=["python", "compiled"],
                        default=None,
                        help="kernel dispatch engine: 'python' "
                             "(reference fused loop) or 'compiled' "
                             "(C core, needs `make compiled-backend`); "
                             "sets REPRO_KERNEL_BACKEND so sweep worker "
                             "processes inherit it (default: python)")
    parser.add_argument("--sanitize", action="store_true",
                        help="install runtime conservation-law checkers "
                             "(packet conservation, reservation sums, "
                             "LiT label monotonicity, clock "
                             "monotonicity); equivalent to "
                             "REPRO_SANITIZE=1; violations abort with "
                             "a JSON report")
    return parser


def _run_simulated(name: str, duration: Optional[float], seed: int,
                   full: bool, csv_dir: Optional[str],
                   workers: Optional[int],
                   partitions: Optional[int] = None) -> str:
    runner, paper_duration = _SIMULATED[name]
    if duration is None:
        duration = paper_duration if full else None
    kwargs: Dict[str, object] = {"seed": seed}
    if duration is not None:
        kwargs["duration"] = duration
    # Not every runner shards (and tests monkeypatch plain fakes in).
    parameters = inspect.signature(runner).parameters
    if "workers" in parameters:
        kwargs["workers"] = workers
    if partitions is not None and "partitions" in parameters:
        kwargs["partitions"] = partitions
    result = runner(**kwargs)
    _maybe_export(name, result, csv_dir)
    return result.table()


def _maybe_export(name: str, result, csv_dir: Optional[str]) -> None:
    if csv_dir is None:
        return
    to_csv = getattr(result, "to_csv", None)
    if to_csv is None:
        return
    from pathlib import Path
    directory = Path(csv_dir)
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / f"{name}.csv"
    to_csv(target)
    print(f"[csv written to {target}]")


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    workers = args.workers if args.workers is not None \
        else default_workers()
    bench.configure(enabled=True, directory=args.bench_dir)
    if args.state_backend is not None:
        # Env var rather than a threaded parameter, for the same
        # reason as --sanitize below: pool workers inherit it.
        import os
        os.environ["REPRO_STATE_BACKEND"] = args.state_backend
    if args.kernel_backend is not None:
        import os
        os.environ["REPRO_KERNEL_BACKEND"] = args.kernel_backend
        if args.kernel_backend == "compiled":
            # Fail at argument time with the build hint, not minutes
            # into a sweep inside a pool worker.
            from repro.sim.backends.compiled import require_ckernel
            require_ckernel()
    if args.sanitize:
        # The env var (not a threaded parameter) is the switch so the
        # parallel runner's pool workers — which inherit the
        # environment — sanitize their shards too.
        import os
        os.environ["REPRO_SANITIZE"] = "1"
    names = (sorted(_SIMULATED) + sorted(_ANALYTIC)
             if args.experiment == "all" else [args.experiment])
    profiler = None
    if args.profile is not None:
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    try:
        for name in names:
            if name in _ANALYTIC:
                print(_ANALYTIC[name]().table())
            else:
                try:
                    print(_run_simulated(name, args.duration, args.seed,
                                         args.full, args.csv, workers,
                                         args.partitions))
                except SanitizerError as error:
                    print(f"[sanitize] {name}: VIOLATIONS",
                          file=sys.stderr)
                    print(error.report_json, file=sys.stderr)
                    return 1
                if args.sanitize:
                    print(f"[sanitize] {name}: clean")
            print()
    finally:
        if profiler is not None:
            profiler.disable()
            _print_profile(profiler, args.profile)
    return 0


def _print_profile(profiler, top: int) -> None:
    """Top ``top`` functions by cumulative time, on stdout."""
    import pstats
    print(f"[profile: top {top} functions by cumulative time]")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(top)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
