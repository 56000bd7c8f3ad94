"""The kernel-throughput regression gate (tier-1 smoke).

A short best-of-3 spin must land within a generous margin of the
committed ``benchmarks/baselines/BENCH_throughput.json``.  The ceiling
is deliberately loose — CI machines vary — so the gate only catches
structural slips (an accidental O(n) scan in the dispatch loop, a
per-event allocation creeping back in), not scheduling noise.

Re-record the baseline after intentional kernel changes::

    PYTHONPATH=src python -m repro.analysis.throughput
"""

from pathlib import Path

import pytest

from repro.analysis import bench, throughput

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
BASELINE = REPO_ROOT / throughput.BASELINE

#: Tolerated events/sec drop vs the committed baseline, in percent.
#: 60 because a full tier-1 run leaves the suite holding enough
#: resident memory to roughly halve the spin's cache locality; real
#: structural slips (O(n) scans, per-event allocation) cost >2x and
#: still trip the gate.
MAX_REGRESSION_PCT = 60.0


def test_baseline_is_committed_and_valid():
    record = bench.read_record(BASELINE)
    assert record.experiment == throughput.EXPERIMENT
    assert record.events_per_sec > 0
    assert record.events_dispatched > 0


def test_measure_returns_plausible_record():
    record = throughput.measure(best_of=1, horizon=0.05)
    # 0.05 s of 0.1 ms ticks: ~501 dispatches (+/- 1) plus the spin-up.
    assert 500 <= record.events_dispatched <= 503
    assert record.events_per_sec > 0
    assert record.experiment == throughput.EXPERIMENT


def test_smoke_throughput_clears_the_gate(tmp_path, capsys):
    record = throughput.measure(best_of=3, horizon=0.25)
    path = bench.write_record(record, tmp_path)
    status = bench.main(["compare", str(BASELINE), str(path),
                         "--max-regression", str(MAX_REGRESSION_PCT)])
    out = capsys.readouterr().out
    assert status == 0, (
        f"kernel throughput regressed more than {MAX_REGRESSION_PCT}% "
        f"below the committed baseline: {out}")


@pytest.mark.parametrize("value", ["objects", "soa"])
def test_removed_state_backend_flag_is_rejected(value):
    with pytest.raises(SystemExit):
        throughput.main(["--sessions", "10", "--state-backend", value])


def test_scaling_mode_records_sessions_and_rss(tmp_path, capsys):
    assert throughput.main(["--sessions", "200", "--horizon", "0.05",
                            "--out", str(tmp_path)]) == 0
    record = bench.read_record(
        tmp_path / f"BENCH_{throughput.SCALING_EXPERIMENT}.json")
    assert record.sessions == 200
    assert record.events_dispatched > 0
    assert record.state_backend is None
    assert "200 sessions" in capsys.readouterr().out
