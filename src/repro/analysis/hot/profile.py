"""Dynamic half of the hot analyzer: profile-guided hotness ranking.

``repro-analyze --profile <scenario>`` runs a shortened in-process workload
under :mod:`cProfile` and joins the measured per-function cumulative
time onto the static hot-path model.  The join key is the code
object's ``(filename, funcname)`` pair (disambiguated by definition
line when a file reuses a method name), matched against
:meth:`~repro.analysis.hot.model.HotProgram.enclosing_function` for
each finding.  The result is a *ranking*: findings in functions where
the profile actually spent time sort first, and ``--budget PCT``
gates the exit status on that measured share rather than on every
static match.

Scenarios deliberately run in-process (``workers=1`` / a single cell)
— a forked worker's samples never reach the parent's profiler.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.hot.model import HotProgram
from repro.analysis.lint.core import Violation

__all__ = [
    "ProfileScenario",
    "HotnessIndex",
    "ProfileReport",
    "profile_scenario",
    "rank_findings",
    "scenarios",
]


# ----------------------------------------------------------------------
# Scenario registry
# ----------------------------------------------------------------------
def _run_fig07(horizon: float) -> Tuple[int, float]:
    """Shortened Figure-7 MIX cell (the dispatch-digest workload)."""
    from repro.experiments.common import build_mix_network
    from repro.units import ms, seconds

    network = build_mix_network(ms(88.0), seed=0)
    network.run(seconds(horizon))
    return network.sim.events_dispatched, horizon


def _run_fault_sweep(horizon: float) -> Tuple[int, float]:
    """One shortened fault-sweep cell, serial so samples stay local."""
    from repro.experiments import fault_sweep

    result = fault_sweep.run(duration=horizon, seed=0,
                             outages=fault_sweep.DEFAULT_OUTAGES_S[:2],
                             workers=1)
    # Per-cell event counts are not part of FaultSweepResult; the
    # sweep's own run_cells() BENCH record carries them.
    return 0, horizon * len(result.rows)


def _run_heavy_traffic(horizon: float) -> Tuple[int, float]:
    """One heavy-traffic cell executed in-process (not forked)."""
    from repro.experiments import heavy_traffic

    cells = heavy_traffic.cells(duration=horizon, seed=0,
                                sessions=1_000, rhos=(0.90,),
                                topologies=("single",))
    output = cells[0].fn(**cells[0].kwargs)
    return output.events, output.simulated


@dataclass(frozen=True)
class ProfileScenario:
    """A profileable workload: ``runner(horizon)`` → (events, sim-s)."""

    name: str
    default_horizon: float
    runner: Callable[[float], Tuple[int, float]]
    description: str


_SCENARIOS = {
    "fig07": ProfileScenario(
        "fig07", 0.25, _run_fig07,
        "shortened Figure-7 MIX cell (canonical workload)"),
    "fault_sweep": ProfileScenario(
        "fault_sweep", 2.0, _run_fault_sweep,
        "fault-injection sweep, first two outage cells, serial"),
    "heavy_traffic": ProfileScenario(
        "heavy_traffic", 0.5, _run_heavy_traffic,
        "one heavy-traffic cell in-process"),
}


def scenarios() -> Dict[str, ProfileScenario]:
    """Registered profile scenarios by name."""
    return dict(_SCENARIOS)


# ----------------------------------------------------------------------
# The hotness index
# ----------------------------------------------------------------------
class HotnessIndex:
    """Per-function cumulative time measured by one profiled run.

    Keys are ``(resolved file path, bare function name)``; a list of
    ``(lineno, cumulative_seconds)`` pairs per key disambiguates
    same-named methods in one file by definition line.
    """

    def __init__(self, stats: pstats.Stats,
                 total_time: float) -> None:
        self.total_time = max(total_time, 1e-12)
        self._by_key: Dict[Tuple[str, str],
                           List[Tuple[int, float]]] = {}
        for (filename, lineno, funcname), row in stats.stats.items():
            cumulative = row[3]
            try:
                resolved = str(Path(filename).resolve())
            except OSError:  # pragma: no cover - exotic filenames
                resolved = filename
            self._by_key.setdefault((resolved, funcname), []).append(
                (lineno, cumulative))

    def cumulative(self, path: str, funcname: str,
                   def_lineno: int) -> Optional[float]:
        """Cumulative seconds for the function defined at ``def_lineno``.

        ``None`` when the profile never entered it (cold code).
        """
        try:
            resolved = str(Path(path).resolve())
        except OSError:  # pragma: no cover - exotic filenames
            resolved = path
        rows = self._by_key.get((resolved, funcname))
        if not rows:
            return None
        best = min(rows, key=lambda row: abs(row[0] - def_lineno))
        return best[1]

    def fraction(self, path: str, funcname: str,
                 def_lineno: int) -> Optional[float]:
        """``cumulative / total`` share, or ``None`` for cold code."""
        cumulative = self.cumulative(path, funcname, def_lineno)
        if cumulative is None:
            return None
        return min(1.0, cumulative / self.total_time)


@dataclass(frozen=True)
class ProfileReport:
    """Everything one profiled run produced."""

    scenario: str
    horizon: float
    events: int
    simulated_s: float
    wall_time_s: float
    index: HotnessIndex


def profile_scenario(name: str,
                     horizon: Optional[float] = None) -> ProfileReport:
    """Run ``name`` under cProfile and index its per-function costs."""
    scenario = _SCENARIOS[name]
    chosen = scenario.default_horizon if horizon is None else horizon
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        events, simulated = scenario.runner(chosen)
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    index = HotnessIndex(stats, stats.total_tt)
    return ProfileReport(scenario=name, horizon=chosen, events=events,
                         simulated_s=simulated,
                         wall_time_s=stats.total_tt, index=index)


# ----------------------------------------------------------------------
# Joining findings onto the profile
# ----------------------------------------------------------------------
def rank_findings(findings: List[Violation], hot: HotProgram,
                  index: HotnessIndex
                  ) -> List[Tuple[Violation, Optional[float]]]:
    """Sort findings by measured hotness of their enclosing function.

    Returns ``(violation, fraction)`` pairs, hottest first; findings
    the profile never reached carry ``None`` and sort last (in static
    order) — they are real static findings, just not on *this*
    scenario's hot path.
    """
    ranked: List[Tuple[Violation, Optional[float]]] = []
    for violation in findings:
        function = hot.enclosing_function(violation.path,
                                          violation.line)
        fraction: Optional[float] = None
        if function is not None:
            fraction = index.fraction(violation.path,
                                      function["name"],
                                      function["lineno"])
        ranked.append((violation, fraction))
    ranked.sort(key=lambda pair: (
        -(pair[1] if pair[1] is not None else -1.0), pair[0]))
    return ranked
