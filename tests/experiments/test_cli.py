"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_accepts_known_experiments():
    parser = build_parser()
    args = parser.parse_args(["figure07", "--duration", "5",
                              "--seed", "3"])
    assert args.experiment == "figure07"
    assert args.duration == 5.0
    assert args.seed == 3


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure99"])


def test_analytic_experiment_runs(capsys):
    assert main(["section4"]) == 0
    out = capsys.readouterr().out
    assert "Stop-and-Go" in out
    assert "PGPS" in out


def test_simulated_experiment_runs_with_duration(capsys):
    assert main(["figure08", "--duration", "2"]) == 0
    out = capsys.readouterr().out
    assert "Figure 8" in out
    assert "onoff-jc" in out


def test_full_flag_selects_paper_duration(monkeypatch, capsys):
    captured = {}

    def fake_run(duration=None, seed=0):
        captured["duration"] = duration

        class Result:
            def table(self):
                return "stub"

        return Result()

    import repro.cli as cli
    monkeypatch.setitem(cli._SIMULATED, "figure07", (fake_run, 300.0))
    assert main(["figure07", "--full"]) == 0
    assert captured["duration"] == 300.0


def test_default_duration_uses_runner_default(monkeypatch):
    captured = {}

    def fake_run(duration=None, seed=0, **kw):
        captured["called_with_duration"] = "duration" in kw or duration

        class Result:
            def table(self):
                return "stub"

        return Result()

    import repro.cli as cli
    monkeypatch.setitem(cli._SIMULATED, "firewall", (fake_run, 60.0))
    assert main(["firewall"]) == 0


def test_parser_accepts_workers_and_bench_dir():
    args = build_parser().parse_args(
        ["figure07", "--workers", "4", "--bench-dir", "/tmp/bench"])
    assert args.workers == 4
    assert args.bench_dir == "/tmp/bench"


def test_workers_forwarded_to_sharding_runners(monkeypatch):
    captured = {}

    def fake_run(duration=None, seed=0, workers=1):
        captured["workers"] = workers

        class Result:
            def table(self):
                return "stub"

        return Result()

    import repro.cli as cli
    monkeypatch.setitem(cli._SIMULATED, "figure07", (fake_run, 300.0))
    assert main(["figure07", "--workers", "3"]) == 0
    assert captured["workers"] == 3


def test_partitions_forwarded_to_space_parallel_runners(monkeypatch):
    captured = {}

    def fake_run(duration=None, seed=0, partitions=None):
        captured["partitions"] = partitions

        class Result:
            def table(self):
                return "stub"

        return Result()

    import repro.cli as cli
    monkeypatch.setitem(cli._SIMULATED, "space_parallel", (fake_run, 10.0))
    assert main(["space_parallel", "--partitions", "2"]) == 0
    assert captured["partitions"] == 2
    # Without the flag the runner keeps its own default sweep.
    assert main(["space_parallel"]) == 0
    assert captured["partitions"] is None


def test_partitions_not_passed_to_plain_runners(monkeypatch):
    def fake_run(duration=None, seed=0):
        class Result:
            def table(self):
                return "stub"

        return Result()

    import repro.cli as cli
    monkeypatch.setitem(cli._SIMULATED, "firewall", (fake_run, 60.0))
    # Would raise TypeError if the CLI forced partitions through.
    assert main(["firewall", "--partitions", "2"]) == 0


def test_workers_not_passed_to_plain_runners(monkeypatch):
    def fake_run(duration=None, seed=0):
        class Result:
            def table(self):
                return "stub"

        return Result()

    import repro.cli as cli
    monkeypatch.setitem(cli._SIMULATED, "firewall", (fake_run, 60.0))
    # Would raise TypeError if the CLI forced workers through.
    assert main(["firewall", "--workers", "2"]) == 0


def test_parser_rejects_removed_batch_kernel_backend():
    parser = build_parser()
    assert parser.parse_args(
        ["figure07", "--kernel-backend", "compiled"]
    ).kernel_backend == "compiled"
    with pytest.raises(SystemExit):
        parser.parse_args(["figure07", "--kernel-backend", "batch"])


def test_parser_accepts_profile_flag():
    parser = build_parser()
    assert parser.parse_args(["figure07"]).profile is None
    assert parser.parse_args(["figure07", "--profile"]).profile == 25
    assert parser.parse_args(["figure07", "--profile", "5"]).profile == 5


def test_profile_prints_hotspots(monkeypatch, capsys):
    def fake_run(duration=None, seed=0):
        class Result:
            def table(self):
                return "stub"

        return Result()

    import repro.cli as cli
    monkeypatch.setitem(cli._SIMULATED, "firewall", (fake_run, 60.0))
    assert main(["firewall", "--profile", "5"]) == 0
    out = capsys.readouterr().out
    assert "[profile: top 5 functions by cumulative time]" in out
    assert "cumulative" in out  # the pstats table header


def test_cli_writes_bench_record(tmp_path, capsys):
    from repro.analysis import bench
    assert main(["figure08", "--duration", "2",
                 "--bench-dir", str(tmp_path)]) == 0
    record = bench.read_record(tmp_path / "BENCH_fig08.json")
    assert record.experiment == "fig08"
    assert record.events_dispatched > 0
    assert record.simulated_s == pytest.approx(2.0)
    assert record.wall_time_s > 0


def test_cli_bench_record_names_the_selected_backends(tmp_path,
                                                      monkeypatch):
    from repro.analysis import bench
    # main() pins the selections in the environment for pool workers;
    # setting them here first makes monkeypatch undo that afterwards.
    # The flag must beat an ambient selection (compiled needs no
    # build here: the flag replaces it before any Simulator exists).
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "compiled")
    monkeypatch.setenv("REPRO_STATE_BACKEND", "objects")
    assert main(["figure08", "--duration", "2", "--workers", "1",
                 "--kernel-backend", "python",
                 "--bench-dir", str(tmp_path)]) == 0
    record = bench.read_record(tmp_path / "BENCH_fig08.json")
    assert record.kernel_backend == "python"
    assert record.state_backend == "objects"
