"""BENCH telemetry records: schema, round-trip, emission gating."""

import dataclasses
import json

import pytest

from repro.analysis import bench


def sample_record():
    return bench.make_record(
        "fig_test", wall_time_s=2.0, events_dispatched=1000,
        workers=3, simulated_s=40.0, cells=5)


class TestRecord:
    def test_events_per_sec_derived(self):
        record = sample_record()
        assert record.events_per_sec == pytest.approx(500.0)

    def test_zero_wall_time_does_not_divide(self):
        record = bench.make_record(
            "z", wall_time_s=0.0, events_dispatched=10, workers=1,
            simulated_s=0.0, cells=1)
        assert record.events_per_sec == 0.0

    def test_schema_version_stamped(self):
        assert sample_record().schema == bench.SCHEMA_VERSION

    def test_git_rev_is_nonempty(self):
        assert sample_record().git_rev

    def test_deterministic_defaults_to_unverified(self):
        assert sample_record().deterministic is None

    def test_deterministic_verdict_is_stamped(self):
        record = bench.make_record(
            "perturb-fig07", wall_time_s=1.0, events_dispatched=10,
            workers=4, simulated_s=1.0, cells=7, deterministic=True)
        assert record.deterministic is True

    def test_partitions_defaults_to_serial(self):
        assert sample_record().partitions == 1

    def test_partitions_is_stamped(self):
        record = bench.make_record(
            "space_parallel", wall_time_s=1.0, events_dispatched=10,
            workers=1, simulated_s=1.0, cells=8, partitions=4)
        assert record.partitions == 4

    def test_state_backend_defaults_to_unknown(self):
        assert sample_record().state_backend is None

    def test_kernel_backend_is_stamped(self):
        record = bench.make_record(
            "heavy", wall_time_s=1.0, events_dispatched=10, workers=1,
            simulated_s=1.0, cells=1, kernel_backend="python")
        assert record.kernel_backend == "python"
        assert record.state_backend is None


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        record = sample_record()
        path = bench.write_record(record, tmp_path)
        assert path == tmp_path / "BENCH_fig_test.json"
        assert bench.read_record(path) == record

    def test_payload_is_flat_sorted_json(self, tmp_path):
        path = bench.write_record(sample_record(), tmp_path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == bench.SCHEMA_VERSION
        assert payload["experiment"] == "fig_test"
        assert list(payload) == sorted(payload)

    def test_deterministic_round_trips(self, tmp_path):
        record = bench.make_record(
            "perturb-fig07", wall_time_s=1.0, events_dispatched=10,
            workers=4, simulated_s=1.0, cells=7, deterministic=False)
        path = bench.write_record(record, tmp_path)
        loaded = bench.read_record(path)
        assert loaded == record
        assert loaded.deterministic is False

    def test_records_without_the_deterministic_key_still_load(
            self, tmp_path):
        path = bench.write_record(sample_record(), tmp_path)
        payload = json.loads(path.read_text())
        del payload["deterministic"]  # a pre-differ schema-1 record
        path.write_text(json.dumps(payload))
        assert bench.read_record(path).deterministic is None

    def test_records_without_the_partitions_key_still_load(
            self, tmp_path):
        path = bench.write_record(sample_record(), tmp_path)
        payload = json.loads(path.read_text())
        del payload["partitions"]  # a pre-space-parallel record
        path.write_text(json.dumps(payload))
        assert bench.read_record(path).partitions == 1

    def test_state_backend_round_trips(self, tmp_path):
        # Only older records carry the field; it must survive a write.
        record = dataclasses.replace(sample_record(),
                                     state_backend="objects")
        loaded = bench.read_record(bench.write_record(record, tmp_path))
        assert loaded == record
        assert loaded.state_backend == "objects"

    def test_records_without_the_state_backend_key_still_load(
            self, tmp_path):
        path = bench.write_record(sample_record(), tmp_path)
        payload = json.loads(path.read_text())
        del payload["state_backend"]  # a record from before the field
        path.write_text(json.dumps(payload))
        assert bench.read_record(path).state_backend is None

    def test_records_naming_the_removed_batch_backend_still_load(
            self, tmp_path):
        path = bench.write_record(sample_record(), tmp_path)
        payload = json.loads(path.read_text())
        payload["kernel_backend"] = "batch"  # a pre-removal record
        path.write_text(json.dumps(payload))
        assert bench.read_record(path).kernel_backend == "batch"

    def test_records_naming_the_removed_soa_backend_still_load(
            self, tmp_path):
        path = bench.write_record(sample_record(), tmp_path)
        payload = json.loads(path.read_text())
        payload["state_backend"] = "soa"  # a pre-removal record
        path.write_text(json.dumps(payload))
        assert bench.read_record(path).state_backend == "soa"

    def test_unknown_schema_rejected(self, tmp_path):
        path = bench.write_record(sample_record(), tmp_path)
        payload = json.loads(path.read_text())
        payload["schema"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema"):
            bench.read_record(path)


class TestEmissionSwitch:
    def test_disabled_by_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(bench.ENV_DIR, str(tmp_path))
        assert not bench.emission_enabled()
        assert bench.emit(sample_record()) is None
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_env_opt_in(self, tmp_path, monkeypatch):
        monkeypatch.setenv(bench.ENV_ENABLE, "1")
        monkeypatch.setenv(bench.ENV_DIR, str(tmp_path))
        path = bench.emit(sample_record())
        assert path == tmp_path / "BENCH_fig_test.json"
        assert bench.read_record(path) == sample_record()

    def test_env_zero_means_off(self, monkeypatch):
        monkeypatch.setenv(bench.ENV_ENABLE, "0")
        assert not bench.emission_enabled()

    def test_configure_wins_over_env_dir(self, tmp_path, monkeypatch):
        other = tmp_path / "env"
        pinned = tmp_path / "pinned"
        monkeypatch.setenv(bench.ENV_DIR, str(other))
        bench.configure(enabled=True, directory=pinned)
        path = bench.emit(sample_record())
        assert path is not None and path.parent == pinned


class TestStopwatch:
    def test_elapsed_is_monotonic(self):
        watch = bench.Stopwatch()
        first = watch.elapsed()
        second = watch.elapsed()
        assert 0.0 <= first <= second


def _record(events, wall=1.0, experiment="gate"):
    return bench.make_record(
        experiment, wall_time_s=wall, events_dispatched=events,
        workers=1, simulated_s=1.0, cells=1)


class TestCompareRecords:
    def test_speedup_passes(self):
        ok, message = bench.compare_records(_record(1000), _record(2000))
        assert ok
        assert "OK" in message and "+100.0%" in message

    def test_regression_beyond_threshold_fails(self):
        ok, message = bench.compare_records(
            _record(1000), _record(850), max_regression=10.0)
        assert not ok
        assert "REGRESSION" in message

    def test_regression_within_threshold_passes(self):
        ok, _ = bench.compare_records(
            _record(1000), _record(950), max_regression=10.0)
        assert ok

    def test_zero_tolerance_fails_any_slowdown(self):
        ok, _ = bench.compare_records(_record(1000), _record(999))
        assert not ok


class TestCompareCli:
    def write(self, tmp_path, name, events, experiment="gate"):
        path = bench.write_record(_record(events, experiment=experiment),
                                  tmp_path / name)
        return str(path)

    def test_exit_zero_on_speedup(self, tmp_path, capsys):
        old = self.write(tmp_path, "old", 1000)
        new = self.write(tmp_path, "new", 1500)
        assert bench.main(["compare", old, new]) == 0
        assert "OK" in capsys.readouterr().out

    def test_exit_nonzero_on_regression(self, tmp_path, capsys):
        old = self.write(tmp_path, "old", 1000)
        new = self.write(tmp_path, "new", 800)
        assert bench.main(["compare", old, new,
                           "--max-regression", "10"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_exit_two_on_mismatched_experiments(self, tmp_path, capsys):
        old = self.write(tmp_path, "old", 1000, experiment="a")
        new = self.write(tmp_path, "new", 1000, experiment="b")
        assert bench.main(["compare", old, new]) == 2
        assert "different experiments" in capsys.readouterr().err

    def test_exit_two_on_missing_file(self, tmp_path, capsys):
        old = self.write(tmp_path, "old", 1000)
        missing = str(tmp_path / "nope" / "BENCH_gate.json")
        assert bench.main(["compare", old, missing]) == 2
        assert "error:" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys as _sys
        old = self.write(tmp_path, "old", 1000)
        new = self.write(tmp_path, "new", 900)
        result = subprocess.run(
            [_sys.executable, "-m", "repro.analysis.bench",
             "compare", old, new],
            capture_output=True, text=True)
        assert result.returncode == 1
        assert "REGRESSION" in result.stdout
