"""The parallel sweep runner: determinism, merging, crash handling."""

import os

import pytest

from repro.analysis import bench
from repro.errors import SimulationError
from repro.experiments import figure07
from repro.experiments.parallel import (
    Cell,
    CellOutput,
    default_workers,
    pool_available,
    run_cells,
)
from repro.units import ms


# ----------------------------------------------------------------------
# Module-level cell functions (worker processes import these by name).
# ----------------------------------------------------------------------
def _square(*, x: int) -> CellOutput:
    return CellOutput(value=x * x, events=x, simulated=float(x))


def _plain(*, x: int) -> int:
    return x + 1


def _crash() -> CellOutput:  # pragma: no cover - runs in a worker
    os._exit(1)


def _unpicklable() -> CellOutput:
    return CellOutput(value=lambda: 42)


class TestRunCells:
    def test_serial_preserves_cell_order(self):
        cells = [Cell(label=f"c{x}", fn=_square, kwargs={"x": x})
                 for x in (3, 1, 2)]
        assert run_cells("t", cells, workers=1) == [9, 1, 4]

    def test_parallel_preserves_cell_order(self):
        cells = [Cell(label=f"c{x}", fn=_square, kwargs={"x": x})
                 for x in (3, 1, 2)]
        assert run_cells("t", cells, workers=3) == [9, 1, 4]

    def test_plain_return_values_are_wrapped(self):
        cells = [Cell(label="p", fn=_plain, kwargs={"x": 1})]
        assert run_cells("t", cells) == [2]

    def test_single_cell_runs_in_process_even_with_workers(self):
        # Single-run experiments return live objects (networks) that
        # cannot cross a process boundary; one cell never uses the pool.
        cells = [Cell(label="live", fn=_unpicklable)]
        (value,) = run_cells("t", cells, workers=4)
        assert value() == 42

    def test_empty_sweep(self):
        assert run_cells("t", []) == []

    def test_worker_crash_raises_not_hangs(self):
        if not pool_available():
            pytest.skip("no multiprocessing support")
        cells = [Cell(label="boom", fn=_crash)]
        # Two cells so the pool path actually engages.
        cells.append(Cell(label="ok", fn=_square, kwargs={"x": 2}))
        with pytest.raises(SimulationError) as excinfo:
            run_cells("t", cells, workers=2)
        message = str(excinfo.value)
        assert "worker process died" in message
        assert "workers=1" in message

    def test_default_workers_is_at_least_one(self):
        assert default_workers() >= 1

    def test_workers_none_uses_default(self):
        cells = [Cell(label="c", fn=_square, kwargs={"x": 2})]
        assert run_cells("t", cells, workers=None) == [4]


class TestBenchEmission:
    def test_run_cells_emits_when_enabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv(bench.ENV_ENABLE, "1")
        monkeypatch.setenv(bench.ENV_DIR, str(tmp_path))
        cells = [Cell(label=f"c{x}", fn=_square, kwargs={"x": x})
                 for x in (2, 3)]
        run_cells("unit_sweep", cells, workers=1)
        record = bench.read_record(tmp_path / "BENCH_unit_sweep.json")
        assert record.experiment == "unit_sweep"
        assert record.events_dispatched == 5      # 2 + 3
        assert record.simulated_s == pytest.approx(5.0)
        assert record.cells == 2
        assert record.workers == 1

    def test_run_cells_stamps_default_backends(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv(bench.ENV_ENABLE, "1")
        monkeypatch.setenv(bench.ENV_DIR, str(tmp_path))
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_STATE_BACKEND", raising=False)
        run_cells("defaults", [Cell(label="c", fn=_square,
                                    kwargs={"x": 1})])
        record = bench.read_record(tmp_path / "BENCH_defaults.json")
        assert record.kernel_backend == "python"
        assert record.state_backend == "objects"

    def test_run_cells_stamps_selected_backends(self, tmp_path,
                                                monkeypatch):
        # The CLI's --kernel-backend / --state-backend set these.
        monkeypatch.setenv(bench.ENV_ENABLE, "1")
        monkeypatch.setenv(bench.ENV_DIR, str(tmp_path))
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "compiled")
        monkeypatch.setenv("REPRO_STATE_BACKEND", "soa")
        cells = [Cell(label=f"c{x}", fn=_square, kwargs={"x": x})
                 for x in (2, 3)]
        run_cells("selected", cells, workers=2)
        record = bench.read_record(tmp_path / "BENCH_selected.json")
        assert record.kernel_backend == "compiled"
        assert record.state_backend == "soa"

    def test_no_file_without_opt_in(self, tmp_path, monkeypatch):
        monkeypatch.setenv(bench.ENV_DIR, str(tmp_path))
        run_cells("quiet", [Cell(label="c", fn=_square,
                                 kwargs={"x": 1})])
        assert not list(tmp_path.glob("BENCH_*.json"))


class TestFigure7Determinism:
    """workers=1 and workers=4 must merge to bit-identical tables."""

    A_OFF = [ms(6.5), ms(650)]

    @pytest.fixture(scope="class")
    def serial(self):
        return figure07.run(duration=2.0, seed=5,
                            a_off_values=self.A_OFF, workers=1)

    def test_parallel_matches_serial(self, serial):
        if not pool_available():
            pytest.skip("no multiprocessing support")
        parallel = figure07.run(duration=2.0, seed=5,
                                a_off_values=self.A_OFF, workers=4)
        assert parallel.rows == serial.rows
        assert parallel.table() == serial.table()

    def test_rows_follow_sweep_order(self, serial):
        assert [row.a_off_ms for row in serial.rows] == pytest.approx(
            [6.5, 650.0])
