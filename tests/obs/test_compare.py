"""Unit tests for the run-log differ and regression gate.

The acceptance criteria live here: an injected >=10% final loss increase
must exit non-zero, identical logs and a 2x step-time slowdown exit zero
(wall-clock series are not gated), and a truncated candidate missing
``run_end`` exits non-zero.
"""

import json
import math
from pathlib import Path

import pytest

from repro import obs
from repro.obs.compare import (
    DEFAULT_GATES,
    Gate,
    _percentile,
    compare_summaries,
    load_summary,
    main,
    render_text,
    run_summary,
)
from repro.obs.report import summarize, summarize_json

BASELINE = (
    Path(__file__).resolve().parents[2]
    / "baselines" / "run_telemetry_baseline.jsonl"
)


def _make_run_log(path, losses, step_seconds=0.01, val_f1=(0.5, 0.7),
                  truncate=False):
    """Write a synthetic but well-formed run log and return its events."""
    with obs.telemetry(run_log=str(path)) as tel:
        elapsed = 0.0
        for step, loss in enumerate(losses, start=1):
            elapsed += step_seconds
            tel.event("step", phase="block_train", step=step,
                      losses={"crf": loss, "total": loss}, elapsed=elapsed)
        for epoch, score in enumerate(val_f1):
            tel.event("eval", phase="block_train", epoch=epoch,
                      val_f1=score)
        with obs.trace("encode"):
            pass
        tel.metrics.counter("pipeline.documents").inc(amount=4)
        tel.metrics.timer("train.apply_step_seconds").observe(0.02)
    if truncate:
        lines = path.read_text().splitlines()
        assert json.loads(lines[-1])["event"] == "run_end"
        path.write_text("\n".join(lines[:-1]) + "\n")
    return obs.read_run_log(str(path))


LOSSES = [2.0, 1.5, 1.2, 1.0, 0.9, 0.8, 0.75, 0.7, 0.65, 0.6]


class TestRunSummary:
    def test_core_keys(self, tmp_path):
        events = _make_run_log(tmp_path / "run.jsonl", LOSSES)
        summary = run_summary(events)
        # final = mean of the last <=5 losses
        assert summary["loss.block_train.crf.final"] == pytest.approx(
            sum(LOSSES[-5:]) / 5
        )
        assert summary["loss.block_train.crf.min"] == pytest.approx(0.6)
        assert summary["steps.block_train.count"] == 10
        assert summary["steps.block_train.mean_step_seconds"] == pytest.approx(
            0.01, rel=0.01
        )
        assert summary["throughput.block_train.steps_per_s"] == pytest.approx(
            100.0, rel=0.01
        )
        assert summary["val.block_train.val_f1.last"] == 0.7
        assert summary["val.block_train.val_f1.best"] == 0.7
        assert summary["span.encode.calls"] == 1
        assert "span.encode.total_seconds" in summary
        assert summary["metric.pipeline.documents"] == 4
        assert summary["metric.train.apply_step_seconds.count"] == 1
        assert summary["run.complete"] == 1.0
        assert summary["run.status_ok"] == 1.0

    def test_truncated_log_is_marked_incomplete(self, tmp_path):
        events = _make_run_log(
            tmp_path / "run.jsonl", LOSSES, truncate=True
        )
        summary = run_summary(events)
        assert summary["run.complete"] == 0.0
        # step series still summarized from what survived
        assert summary["steps.block_train.count"] == 10

    def test_empty_events(self):
        summary = run_summary([])
        assert summary["run.complete"] == 0.0
        assert summary["run.status_ok"] == 0.0
        assert not any(k.startswith(("loss.", "steps.")) for k in summary)


class TestCommittedBaseline:
    """The committed baseline log was written while the session still ran
    drift checks, so it carries ``drift`` events; the readers must take
    such an old log as is and report nothing from those events."""

    @pytest.fixture(scope="class")
    def events(self):
        events = obs.read_run_log(str(BASELINE))
        assert any(e["event"] == "drift" for e in events)
        return events

    def test_report_reads_old_log(self, events):
        text = summarize(events)
        assert "span breakdown:" in text
        assert "drift checks" not in text and "alerts (" not in text
        payload = summarize_json(events)
        assert payload["status"] == "ok"
        assert payload["summary"] == run_summary(events)
        assert not {"alerts", "drift"} & set(payload)

    def test_gate_reads_old_log(self, events):
        summary = run_summary(events)
        assert not {"alerts.count", "drift.checks", "drift.flags"} & set(summary)
        result = compare_summaries(summary, dict(summary))
        assert result["ok"] is True
        assert result["regressions"] == []


class TestPercentile:
    def test_exact_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert _percentile(values, 50) == pytest.approx(2.5)
        assert _percentile(values, 0) == 1.0
        assert _percentile(values, 100) == 4.0
        assert _percentile([7.0], 95) == 7.0


class TestGate:
    def test_rel_increase(self):
        gate = Gate("loss.*", 0.05, "rel_increase")
        assert gate.evaluate(1.0, 1.04) == (False, pytest.approx(0.04))
        assert gate.evaluate(1.0, 1.10)[0] is True

    def test_rel_decrease(self):
        gate = Gate("val.*", 0.05, "rel_decrease")
        assert gate.evaluate(0.80, 0.70)[0] is True
        assert gate.evaluate(0.80, 0.79)[0] is False
        assert gate.evaluate(0.80, 0.90)[0] is False


class TestCompareSummaries:
    def test_identical_logs_pass(self, tmp_path):
        events = _make_run_log(tmp_path / "run.jsonl", LOSSES)
        summary = run_summary(events)
        result = compare_summaries(summary, dict(summary))
        assert result["ok"] is True
        assert result["regressions"] == []

    def test_ten_percent_final_loss_regression_fails(self, tmp_path):
        baseline = run_summary(_make_run_log(tmp_path / "a.jsonl", LOSSES))
        worse = run_summary(_make_run_log(
            tmp_path / "b.jsonl", [x * 1.10 for x in LOSSES]
        ))
        result = compare_summaries(baseline, worse)
        assert result["ok"] is False
        assert any(
            r["key"] == "loss.block_train.crf.final"
            for r in result["regressions"]
        )

    def test_validation_drop_fails(self, tmp_path):
        baseline = run_summary(
            _make_run_log(tmp_path / "a.jsonl", LOSSES, val_f1=(0.5, 0.8))
        )
        worse = run_summary(
            _make_run_log(tmp_path / "b.jsonl", LOSSES, val_f1=(0.5, 0.6))
        )
        result = compare_summaries(baseline, worse)
        assert any(
            r["key"] == "val.block_train.val_f1.best"
            for r in result["regressions"]
        )

    def test_tolerance_override_loosens_a_gate(self, tmp_path):
        baseline = run_summary(_make_run_log(tmp_path / "a.jsonl", LOSSES))
        worse = run_summary(_make_run_log(
            tmp_path / "b.jsonl", [x * 1.10 for x in LOSSES]
        ))
        gates = [
            Gate(g.pattern, 0.5, g.kind)
            if g.pattern.startswith("loss.") else g
            for g in DEFAULT_GATES
        ]
        assert compare_summaries(baseline, worse, gates=gates)["ok"] is True

    def test_missing_keys_are_reported_not_fatal(self, tmp_path):
        baseline = run_summary(_make_run_log(tmp_path / "a.jsonl", LOSSES))
        candidate = {
            k: v for k, v in baseline.items() if not k.startswith("val.")
        }
        result = compare_summaries(baseline, candidate)
        assert result["ok"] is True
        assert any(k.startswith("val.") for k in result["only_baseline"])

    def test_render_text_mentions_the_regression(self, tmp_path):
        baseline = run_summary(_make_run_log(tmp_path / "a.jsonl", LOSSES))
        worse = run_summary(_make_run_log(
            tmp_path / "b.jsonl", [x * 1.5 for x in LOSSES]
        ))
        text = render_text(compare_summaries(baseline, worse))
        assert "REGRESSION" in text
        assert "loss.block_train.crf.final" in text


class TestLoadSummary:
    def test_loads_run_logs_and_flat_json(self, tmp_path):
        log_path = tmp_path / "run.jsonl"
        events = _make_run_log(log_path, LOSSES)
        from_log, meta = load_summary(str(log_path))
        assert meta["complete"] is True and meta["status"] == "ok"

        flat_path = tmp_path / "summary.json"
        flat_path.write_text(json.dumps({"loss": {"final": 1.0}, "n": 2}))
        from_flat, flat_meta = load_summary(str(flat_path))
        assert from_flat == {"loss.final": 1.0, "n": 2.0}
        assert flat_meta["format"] == "json"

    def test_truncated_log_meta(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _make_run_log(path, LOSSES, truncate=True)
        _, meta = load_summary(str(path))
        assert meta["complete"] is False


class TestCli:
    def _logs(self, tmp_path, factor=1.0, step_seconds=0.01, truncate=False):
        base = tmp_path / "baseline.jsonl"
        cand = tmp_path / "candidate.jsonl"
        _make_run_log(base, LOSSES)
        _make_run_log(cand, [x * factor for x in LOSSES],
                      step_seconds=step_seconds, truncate=truncate)
        return str(base), str(cand)

    def test_identical_logs_exit_zero(self, tmp_path, capsys):
        base, _ = self._logs(tmp_path)
        assert main([base, base]) == 0
        assert "ok" in capsys.readouterr().out

    def test_loss_regression_exits_one(self, tmp_path, capsys):
        base, cand = self._logs(tmp_path, factor=1.10)
        assert main([base, cand]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_step_time_slowdown_exits_zero(self, tmp_path, capsys):
        base, cand = self._logs(tmp_path, step_seconds=0.02)
        assert main([base, cand]) == 0
        assert "steps.block_train.mean_step_seconds" not in capsys.readouterr().out

    def test_tolerance_flag(self, tmp_path):
        base, cand = self._logs(tmp_path, factor=1.10)
        assert main([base, cand, "--tolerance", "loss.*.final=0.5",
                     "--tolerance", "loss.*.min=0.5"]) == 0

    def test_bad_tolerance_exits_two(self, tmp_path, capsys):
        base, _ = self._logs(tmp_path)
        assert main([base, base, "--tolerance", "nonsense"]) == 2
        assert main([base, base, "--tolerance", "loss.*=abc"]) == 2
        capsys.readouterr()

    def test_missing_file_exits_two(self, tmp_path, capsys):
        base, _ = self._logs(tmp_path)
        assert main([base, str(tmp_path / "absent.jsonl")]) == 2
        capsys.readouterr()

    def test_truncated_candidate_exits_one(self, tmp_path, capsys):
        base, cand = self._logs(tmp_path, truncate=True)
        assert main([base, cand]) == 1
        assert "run.complete" in capsys.readouterr().out

    def test_json_output_shapes(self, tmp_path, capsys):
        base, cand = self._logs(tmp_path, factor=1.5)
        out_path = tmp_path / "diff.json"
        code = main([base, cand, "--json-out", str(out_path)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is False
        assert payload["regressions"]
