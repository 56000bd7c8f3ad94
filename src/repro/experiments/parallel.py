"""Process-pool sweep runner: shard (sweep-point × seed) cells.

Every Section-3 figure is a sweep — one fully isolated simulation per
(sweep point, seed) **cell** — so the sweep parallelizes perfectly: each
cell builds its own :class:`~repro.net.network.Network` with its own
seeded :class:`~repro.sim.rng.RandomStreams` and shares nothing with its
neighbours.  This module fans the cells out across worker processes and
merges the results **in cell order**, so the output is bit-identical to
running the same cells serially:

* ``workers=1`` (the default everywhere but the CLI) *is* the serial
  path — cells run in-process, in order, with no pool involved;
* ``workers=N`` runs up to N cells concurrently via ``multiprocessing``
  (through :class:`concurrent.futures.ProcessPoolExecutor`); results
  are collected positionally, never in completion order;
* environments without ``multiprocessing`` degrade to the serial path;
* a sweep with a single cell always runs in-process, which lets
  single-run experiments keep returning live objects (networks, sinks)
  that would not survive pickling.

A figure module stays declarative: it exposes a ``cells(...)`` builder
returning ``[Cell(label, fn, kwargs), ...]`` where ``fn`` is a
module-level function (picklable) returning a :class:`CellOutput`, and
its ``run(..., workers=N)`` hands the list to :func:`run_cells` and
merges the per-cell values into its result dataclass.

Every :func:`run_cells` call additionally assembles a
:class:`~repro.analysis.bench.BenchRecord` (wall time, events
dispatched, events/sec, workers, simulated horizon, git revision) and
hands it to :func:`repro.analysis.bench.emit`, seeding the repo's perf
trajectory; emission is off unless the CLI or ``REPRO_BENCH_JSON=1``
enabled it.

A worker that dies (OOM-killed, segfaulted, ``os._exit``) surfaces as
:class:`~repro.errors.SimulationError` naming the first unfinished
cell — never as a hang.  Ordinary exceptions raised inside a cell
propagate unchanged, exactly as they would serially.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.analysis import bench
from repro.errors import SimulationError
from repro.net.network import resolve_state_backend
from repro.sim.backends import resolve_backend

try:  # pragma: no cover - import gate for exotic builds
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    _POOL_AVAILABLE = True
except ImportError:  # pragma: no cover - no multiprocessing support
    multiprocessing = None  # type: ignore[assignment]
    ProcessPoolExecutor = None  # type: ignore[assignment,misc]
    BrokenProcessPool = None  # type: ignore[assignment,misc]
    _POOL_AVAILABLE = False

__all__ = [
    "Cell",
    "CellOutput",
    "cell_output",
    "default_workers",
    "pool_available",
    "run_cells",
]


@dataclass(frozen=True)
class Cell:
    """One independent unit of a sweep: ``fn(**kwargs)`` in isolation.

    ``fn`` must be a module-level function (worker processes import it
    by qualified name) and ``kwargs`` must be picklable.  ``label``
    appears in error messages and diagnostics.
    """

    label: str
    fn: Callable[..., "CellOutput"]
    kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class CellOutput:
    """A cell's return: its value plus per-cell telemetry."""

    value: Any
    #: Events the cell's simulator dispatched (0 if not reported).
    events: int = 0
    #: Simulated seconds the cell covered (0.0 if not reported).
    simulated: float = 0.0


def cell_output(network: Any, value: Any,
                simulated: float) -> CellOutput:
    """Wrap a cell's value with telemetry read off its network."""
    return CellOutput(value=value,
                      events=network.sim.events_dispatched,
                      simulated=simulated)


def pool_available() -> bool:
    """True when process-pool execution is supported here."""
    return _POOL_AVAILABLE


def default_workers() -> int:
    """All-but-one of the CPUs available to this process (min 1)."""
    if not _POOL_AVAILABLE:
        return 1
    counter = getattr(os, "process_cpu_count", None)
    count = counter() if counter is not None else os.cpu_count()
    return max(1, (count or 1) - 1)


def _execute(cell: Cell) -> CellOutput:
    """Run one cell; tolerate plain return values from ad-hoc cells."""
    output = cell.fn(**cell.kwargs)
    if not isinstance(output, CellOutput):
        output = CellOutput(value=output)
    return output


def _run_pool(cells: List[Cell], workers: int) -> List[CellOutput]:
    """Fan cells out over a process pool; collect in cell order."""
    context = multiprocessing.get_context()
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=context) as pool:
        futures = [pool.submit(_execute, cell) for cell in cells]
        outputs: List[CellOutput] = []
        for cell, future in zip(cells, futures):
            try:
                outputs.append(future.result())
            except BrokenProcessPool as exc:
                raise SimulationError(
                    f"a parallel sweep worker process died while "
                    f"{len(cells)} cells were in flight (first "
                    f"unfinished cell: {cell.label!r}); rerun with "
                    f"workers=1 to reproduce serially") from exc
    return outputs


def run_cells(experiment: str, cells: Iterable[Cell], *,
              workers: Optional[int] = 1) -> List[Any]:
    """Run every cell and return their values in cell order.

    ``workers=None`` means :func:`default_workers`.  The effective
    worker count never exceeds the number of cells, and a single-cell
    (or single-worker, or pool-less) run executes in-process.  Emits a
    BENCH record for ``experiment`` through :mod:`repro.analysis.bench`.
    """
    cell_list = list(cells)
    requested = default_workers() if workers is None \
        else max(1, int(workers))
    effective = min(requested, len(cell_list)) if cell_list else 1
    watch = bench.Stopwatch()
    if effective <= 1 or not _POOL_AVAILABLE:
        effective = 1
        outputs = [_execute(cell) for cell in cell_list]
    else:
        outputs = _run_pool(cell_list, effective)
    record = bench.make_record(
        experiment,
        wall_time_s=watch.elapsed(),
        events_dispatched=sum(output.events for output in outputs),
        workers=effective,
        simulated_s=sum(output.simulated for output in outputs),
        cells=len(cell_list),
        # Pool workers inherit the environment the backends resolve
        # from, so the parent's resolution is every cell's.
        kernel_backend=resolve_backend(),
        state_backend=resolve_state_backend(),
    )
    bench.emit(record)
    return [output.value for output in outputs]
