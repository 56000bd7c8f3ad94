"""Benchmark of the Leave-in-Time simulator: whole simulations, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mix_saturated --seed 0 --seconds 20
    python3 perfbench/run.py --workload all --seed 0 --seconds 20
    python3 perfbench/run.py --workload fault_flap --seed 0 --trace 1

Each repetition of a workload runs in a fresh interpreter
(``child.py``), one at a time, with the kernel and state backend
selection variables cleared, so the program measured is the default
one and the resident-set high-water mark belongs to that workload
alone.  Repetitions are made until ``--seconds`` of host time would be
exceeded (at least three; one traced pair with ``--trace 1``) and the
median of each metric is reported.

With ``--trace 0`` the end-to-end metrics are reported: ``pkts_per_s``
(packets delivered per host second of ``Network.run``), ``setup_s``
(host seconds to build the scenario) and ``peak_rss_mb``.  With
``--trace 1`` each repetition is an untraced run followed by a traced
run of the same seed, and the per-layer metrics are reported.  Every
repetition checks its output (digest, conservation, eq.-12 bounds);
the checks made and failed are the ``attempted`` and ``failed`` fields
of the JSON object printed as the last line, and ``checks_failed`` is
their ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
DIGESTS = BENCH_DIR / "digests.json"

WORKLOAD_NAMES = ("mix_saturated", "heavy_tandem", "churn_storm",
                  "fault_flap")

#: Variables that would change which program is measured.
CLEARED_ENV = ("REPRO_KERNEL_BACKEND", "REPRO_STATE_BACKEND",
               "REPRO_SANITIZE")

MIN_REPETITIONS = 3
MIN_TRACED_PAIRS = 1
#: No repetition starts once this much host time has passed.
HARD_LIMIT_S = 120.0
CHILD_TIMEOUT_S = 150.0

PER_LAYER_UNITS = {
    "sim.events": "count", "sim.events_per_pkt": "ratio",
    "sim.self_s": "s", "sim.self_ns_per_event": "ns",
    "sim.pending_at_start": "count",
    "net.node.receive_calls": "count", "net.node.self_s": "s",
    "net.node.self_ns_per_hop": "ns",
    "net.network.self_s": "s", "net.sink.self_s": "s",
    "sched.self_s": "s", "sched.on_arrival_ns": "ns",
    "sched.next_packet_ns": "ns", "sched.on_transmit_complete_ns": "ns",
    "sched.next_packet_hit_ratio": "ratio", "sched.backlog_max": "count",
    "traffic.self_s": "s", "traffic.pkts_emitted": "count",
    "admission.admit_calls": "count", "admission.accept_ratio": "ratio",
    "admission.self_s": "s", "admission.admit_p50_us": "us",
    "admission.admit_p99_us": "us",
    "bounds.calls": "count", "bounds.self_s": "s",
    "net.session.add_s": "s", "net.session.remove_s": "s",
    "net.session.retained_kb_per_call": "KB",
    "setup.add_session_s": "s", "setup.source_s": "s",
    "setup.rss_mb": "MB", "setup.kb_per_session": "KB",
    "faults.self_s": "s", "faults.drops": "count",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _child_env() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if key not in CLEARED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(workload: str, seed: int,
              trace_out: Optional[Path] = None) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; its parsed JSON result."""
    command = [sys.executable, str(BENCH_DIR / "child.py"),
               "--workload", workload, "--seed", str(seed)]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload} seed {seed}: repetition timed out "
                         f"after {CHILD_TIMEOUT_S:.0f} s") from error
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} seed {seed}: repetition failed "
                         f"(exit {proc.returncode})\n{proc.stderr}")
    return json.loads(lines[-1])


def load_digests() -> Dict[str, Dict[str, str]]:
    with open(DIGESTS) as handle:
        return json.load(handle)


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256() -> str:
    """Digest of the program's source files (the checkout may lack git)."""
    hasher = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            hasher.update(str(path.relative_to(src)).encode() + b"\0")
            hasher.update(path.read_bytes())
    return hasher.hexdigest()


def manifest(workload: str, seed: int, seconds: float, trace: bool,
             first: Dict[str, Any], repetitions: int) -> Dict[str, Any]:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "horizon_s": first["horizon_s"],
        "kernel_backend": first["kernel_backend"],
        "state_backend": first["state_backend"],
        "session_table": first["session_table"],
        "repetitions": repetitions,
        "git_rev": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": _source_sha256(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cleared_env": list(CLEARED_ENV),
    }


class Checks:
    """Counts the output checks made and failed across repetitions."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def repetition(self, result: Dict[str, Any],
                   expected_digest: Optional[str]) -> None:
        label = (f"{result['workload']} seed {result['seed']}"
                 f"{' traced' if result['traced'] else ''}")
        if expected_digest is not None:
            self.check(result["digest"] == expected_digest,
                       f"{label}: digest {result['digest']} differs from "
                       f"{expected_digest}")
        self.check(result["conserved"],
                   f"{label}: packets not conserved "
                   f"{result['conservation']}")
        self.attempted += result["bounds_checked"]
        self.failures.extend(f"{label}: {failure}"
                             for failure in result["bound_failures"])

    @property
    def failed(self) -> int:
        return len(self.failures)


def measure(workload: str, seed: int, seconds: float, trace: bool
            ) -> Tuple[Dict[str, Any], Checks, Dict[str, Any]]:
    """Repeat one workload for ``seconds``; medians, checks, manifest."""
    recorded = load_digests().get(workload, {}).get(str(seed))
    checks = Checks()
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    minimum = MIN_TRACED_PAIRS if trace else MIN_REPETITIONS
    OUT_DIR.mkdir(exist_ok=True)
    trace_out = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    start = perf_counter()
    while True:
        began = perf_counter()
        result = run_child(workload, seed)
        # Without a recorded digest, repetitions must agree with the first.
        checks.repetition(result, recorded if recorded is not None
                          else (untraced[0]["digest"] if untraced else None))
        untraced.append(result)
        if trace:
            traced_result = run_child(workload, seed, trace_out)
            checks.repetition(traced_result, recorded)
            checks.check(traced_result["digest"] == result["digest"],
                         f"{workload} seed {seed}: traced digest "
                         f"{traced_result['digest']} differs from untraced "
                         f"{result['digest']}")
            traced.append(traced_result)
        elapsed = perf_counter() - start
        last = perf_counter() - began
        if len(untraced) >= minimum and (elapsed + last > seconds
                                         or elapsed > HARD_LIMIT_S):
            break

    if trace:
        per_pair = []
        for plain, spans in zip(untraced, traced):
            values = dict(spans["per_layer"])
            values.update(plain["per_layer"])
            values["trace.overhead_ratio"] = spans["run_s"] / plain["run_s"]
            per_pair.append(values)
        metrics = {name: (statistics.median(v[name] for v in per_pair),
                          unit)
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "pkts_per_s": (statistics.median(
                r["delivered"] / r["run_s"] for r in untraced), "1/s"),
            "setup_s": (statistics.median(r["setup_s"] for r in untraced),
                        "s"),
            "peak_rss_mb": (statistics.median(
                r["peak_rss_mb"] for r in untraced), "MB"),
        }
    info = manifest(workload, seed, seconds, trace, untraced[0],
                    len(untraced))
    info["digest"] = untraced[0]["digest"]
    info["digest_recorded"] = recorded is not None
    record = {"manifest": info,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "checks": {"attempted": checks.attempted,
                         "failed": checks.failed,
                         "failures": checks.failures[:50]},
              "repetitions": untraced + traced}
    with open(OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}"
              f".json", "w") as handle:
        json.dump(record, handle, indent=1)
    return metrics, checks, info


def _print_workload(workload: str, metrics: Dict[str, Tuple[float, str]],
                    checks: Checks, info: Dict[str, Any]) -> None:
    print(f"manifest {json.dumps(info, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    ratio = checks.failed / checks.attempted if checks.attempted else 0.0
    print(f"{workload} checks_failed = {ratio:.6g} ratio "
          f"({checks.failed} of {checks.attempted} checks)")
    for failure in checks.failures[:20]:
        print(f"CHECK FAILED {failure}")


def _check_root() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {ROOT / 'src'}; run the "
                         f"benchmark from a checkout of the repository")
    if not DIGESTS.is_file():
        raise BenchError(f"missing {DIGESTS}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="host seconds of repetitions per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the
    # repetition in progress instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        _check_root()
        names = WORKLOAD_NAMES if args.workload == "all" \
            else (args.workload,)
        attempted = failed = 0
        combined: Dict[str, Dict[str, Any]] = {}
        for name in names:
            metrics, checks, info = measure(name, args.seed, args.seconds,
                                            bool(args.trace))
            _print_workload(name, metrics, checks, info)
            sys.stdout.flush()
            attempted += checks.attempted
            failed += checks.failed
            prefix = f"{name}." if len(names) > 1 else ""
            combined.update({prefix + key: {"value": value, "unit": unit}
                             for key, (value, unit) in metrics.items()})
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
