"""Run logging: JSONL round-trip and the telemetry session lifecycle."""

import json

import numpy as np
import pytest

from repro import obs
from repro.obs import MetricsRegistry, RunLogger, read_run_log, write_json


class TestRunLogger:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLogger(path, config={"lr": 0.001}, seeds={"trainer": 7}) as log:
            log.step(1, losses={"crf": 1.5}, grad_norm=2.0)
            log.epoch(0, loss=1.4)
            log.eval(val_accuracy=0.5)
        events = read_run_log(path)
        kinds = [e["event"] for e in events]
        assert kinds == ["run_start", "step", "epoch", "eval", "run_end"]
        start, step, epoch, evaluation, end = events
        assert start["config"] == {"lr": 0.001}
        assert start["seeds"] == {"trainer": 7}
        assert start["run_id"] == end["run_id"]
        assert step["losses"] == {"crf": 1.5}
        assert step["grad_norm"] == 2.0
        assert epoch["loss"] == 1.4
        assert evaluation["val_accuracy"] == 0.5
        assert end["status"] == "ok"
        assert end["total_seconds"] >= 0.0

    def test_every_record_carries_clock_fields(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLogger(path) as log:
            log.event("custom", value=1)
        for record in read_run_log(path):
            assert "ts" in record and "elapsed" in record

    def test_elapsed_is_monotone(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLogger(path) as log:
            for i in range(5):
                log.step(i)
        elapsed = [e["elapsed"] for e in read_run_log(path)]
        assert elapsed == sorted(elapsed)

    def test_numpy_values_serialize(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLogger(path) as log:
            log.event(
                "custom",
                scalar=np.float64(1.5),
                integer=np.int64(3),
                array=np.arange(3),
            )
        record = read_run_log(path)[1]
        assert record["scalar"] == 1.5
        assert record["integer"] == 3
        assert record["array"] == [0, 1, 2]

    def test_exception_marks_run_as_error(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with pytest.raises(ValueError):
            with RunLogger(path):
                raise ValueError("boom")
        end = read_run_log(path)[-1]
        assert end["event"] == "run_end"
        assert end["status"] == "error"
        assert end["error"] == "ValueError"

    def test_run_end_is_idempotent(self, tmp_path):
        log = RunLogger(str(tmp_path / "run.jsonl"))
        log.run_start()
        log.run_end()
        log.run_end()
        log.close()
        events = read_run_log(str(tmp_path / "run.jsonl"))
        assert [e["event"] for e in events] == ["run_start", "run_end"]

    def test_metric_snapshot_event(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("cache.hits").inc(3)
        path = str(tmp_path / "run.jsonl")
        with RunLogger(path) as log:
            log.metric_snapshot(registry)
        snapshot = read_run_log(path)[1]
        assert snapshot["event"] == "metric_snapshot"
        assert snapshot["metrics"]["cache.hits"]["series"][0]["value"] == 3.0


class TestWriteJson:
    def test_numpy_safe_document(self, tmp_path):
        path = str(tmp_path / "report.json")
        write_json(path, {"speedup": np.float64(2.5), "sizes": np.arange(2)})
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload == {"speedup": 2.5, "sizes": [0, 1]}


class TestTelemetrySession:
    def test_no_session_installed_by_default(self):
        assert obs.get_telemetry() is None

    def test_use_telemetry_installs_and_restores(self):
        session = obs.Telemetry()
        with obs.use_telemetry(session):
            assert obs.get_telemetry() is session
        assert obs.get_telemetry() is None

    def test_telemetry_writes_full_lifecycle(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with obs.telemetry(
            run_log=path, config={"epochs": 2}, seeds={"trainer": 0}
        ) as tel:
            with obs.trace("work", batch=2):
                pass
            tel.metrics.counter("items").inc(5)
            tel.event("custom", value=1)
        events = read_run_log(path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert "span" in kinds and "custom" in kinds and "metric_snapshot" in kinds
        span = next(e for e in events if e["event"] == "span")
        assert span["name"] == "work"
        assert span["attributes"] == {"batch": 2}
        snapshot = next(e for e in events if e["event"] == "metric_snapshot")
        assert snapshot["metrics"]["items"]["series"][0]["value"] == 5.0

    def test_telemetry_error_path(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with pytest.raises(RuntimeError):
            with obs.telemetry(run_log=path):
                raise RuntimeError("boom")
        end = read_run_log(path)[-1]
        assert end["status"] == "error"
        assert end["error"] == "RuntimeError"
        assert obs.get_telemetry() is None

    def test_telemetry_without_run_log_collects_in_memory(self):
        with obs.telemetry() as tel:
            with obs.trace("stage"):
                pass
            tel.metrics.counter("c").inc()
        summary = tel.summary()
        assert summary["spans"]["stage"]["calls"] == 1
        assert summary["metrics"]["c"]["series"][0]["value"] == 1.0

    def test_traced_decorator_resolves_session_at_call_time(self):
        calls = []

        @obs.traced("unit.work")
        def work():
            calls.append(obs.get_telemetry())
            return 42

        assert work() == 42  # no session: plain call
        with obs.telemetry() as tel:
            assert work() == 42
        assert tel.tracer.calls_by_name() == {"unit.work": 1}
        assert calls[0] is None and calls[1] is tel


class TestTailEvents:
    def test_missing_file_reads_as_no_events(self, tmp_path):
        events, offset = obs.tail_events(str(tmp_path / "nope.jsonl"))
        assert events == [] and offset == 0

    def test_incremental_reads_resume_from_offset(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w") as handle:
            handle.write('{"event": "a"}\n')
        events, offset = obs.tail_events(path)
        assert [e["event"] for e in events] == ["a"]
        with open(path, "a") as handle:
            handle.write('{"event": "b"}\n{"event": "c"}\n')
        events, offset = obs.tail_events(path, offset)
        assert [e["event"] for e in events] == ["b", "c"]
        assert obs.tail_events(path, offset) == ([], offset)

    def test_partial_trailing_line_waits_for_its_newline(self, tmp_path):
        """A writer caught mid-record must not poison the poll: the torn
        bytes stay unconsumed until the newline lands."""
        path = str(tmp_path / "run.jsonl")
        with open(path, "w") as handle:
            handle.write('{"event": "a"}\n{"event": "b", "x"')
        events, offset = obs.tail_events(path)
        assert [e["event"] for e in events] == ["a"]
        with open(path, "a") as handle:
            handle.write(': 1}\n')
        events, offset = obs.tail_events(path, offset)
        assert events == [{"event": "b", "x": 1}]

    def test_matches_read_run_log_on_a_finished_log(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with obs.RunLogger(path, config={"k": 1}) as log:
            log.step(1, losses={"total": 0.5})
        assert obs.tail_events(path)[0] == read_run_log(path)
