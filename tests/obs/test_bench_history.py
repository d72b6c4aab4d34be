"""Benchmark trajectory: record shape, gating semantics, CLI contract.

Contract under test: :func:`write_bench_report` keeps the one-shot
``BENCH_*.json`` byte-compatible with ``write_json`` while also
appending a summarized, committed JSONL record; the summary carries only
the tracked key patterns (never the telemetry subtree); smoke records
are recorded but never gated; and ``--check`` gates the latest full
record against the per-key trailing median with compare's Gate
semantics (2x latency ratio with the micro-timing floor, halved
throughput).
"""

import json
import os

from repro.obs import bench_history as bh


def _report(seconds=1.0, throughput=100.0, smoke=False):
    return {
        "smoke": smoke,
        "stages": {"encode": {"seconds": seconds}},
        "per_document_predict": {"throughput_per_second": throughput},
        "speedup_per_resume": 3.0,
        "config": {"batch_size": 8},  # not a tracked pattern
        "telemetry": {
            "metrics": {"ignored.seconds": 1.0},
            "spans": {"a": {}, "b": {}},
        },
    }


def _seed(tmp_path, reports):
    """Write a history file from a sequence of report dicts."""
    history_dir = str(tmp_path / "history")
    for report in reports:
        bh.append_record(
            str(tmp_path / "BENCH_demo.json"), report, history_dir=history_dir
        )
    return os.path.join(history_dir, "demo.jsonl")


class TestSummarize:
    def test_tracked_patterns_only(self):
        summary = bh.summarize_report(_report())
        assert summary == {
            "per_document_predict.throughput_per_second": 100.0,
            "speedup_per_resume": 3.0,
            "stages.encode.seconds": 1.0,
        }

    def test_telemetry_subtree_excluded_even_when_keys_match(self):
        summary = bh.summarize_report(_report())
        assert not any(key.startswith("telemetry.") for key in summary)

    def test_bench_name_strips_prefix(self):
        assert bh.bench_name("/x/BENCH_training.json") == "training"
        assert bh.bench_name("plain.jsonl") == "plain"


class TestAppendRecord:
    def test_record_shape_and_provenance(self, tmp_path):
        path = _seed(tmp_path, [_report()])
        (record,) = bh.load_history(path)
        assert record["bench"] == "demo"
        assert record["smoke"] is False
        assert record["telemetry"] == {"metrics": 1, "spans": 2}
        assert "recorded_at" in record and "git_sha" in record
        assert record["summary"]["stages.encode.seconds"] == 1.0

    def test_records_append_not_overwrite(self, tmp_path):
        path = _seed(tmp_path, [_report(), _report(seconds=2.0)])
        records = bh.load_history(path)
        assert [r["summary"]["stages.encode.seconds"] for r in records] == [
            1.0, 2.0,
        ]

    def test_write_bench_report_emits_both_artifacts(self, tmp_path):
        report_path = str(tmp_path / "BENCH_demo.json")
        history_dir = str(tmp_path / "history")
        bh.write_bench_report(report_path, _report(), history_dir=history_dir)
        with open(report_path, encoding="utf-8") as handle:
            assert json.load(handle)["speedup_per_resume"] == 3.0
        assert len(bh.load_history(
            os.path.join(history_dir, "demo.jsonl")
        )) == 1


class TestCheckHistory:
    def test_single_record_passes_trivially(self, tmp_path):
        verdict = bh.check_history(_seed(tmp_path, [_report()]))
        assert verdict["ok"] is True and verdict["gated"] is False

    def test_stable_trajectory_passes(self, tmp_path):
        path = _seed(tmp_path, [_report(seconds=s) for s in (1.0, 1.1, 0.95)])
        verdict = bh.check_history(path)
        assert verdict["ok"] is True and verdict["gated"] is True

    def test_latency_regression_vs_trailing_median_fails(self, tmp_path):
        path = _seed(
            tmp_path,
            [_report(), _report(seconds=1.1), _report(seconds=2.5)],
        )
        verdict = bh.check_history(path)
        assert verdict["ok"] is False
        keys = [
            r["key"] for r in verdict["comparison"]["regressions"]
        ]
        assert keys == ["stages.encode.seconds"]

    def test_throughput_halving_fails(self, tmp_path):
        path = _seed(
            tmp_path, [_report(), _report(), _report(throughput=30.0)]
        )
        verdict = bh.check_history(path)
        assert verdict["ok"] is False
        keys = [r["key"] for r in verdict["comparison"]["regressions"]]
        assert "per_document_predict.throughput_per_second" in keys

    def test_smoke_records_never_gate(self, tmp_path):
        """A shrunk CI run that looks 10x slower must not trip the gate."""
        path = _seed(
            tmp_path, [_report(), _report(seconds=10.0, smoke=True)]
        )
        verdict = bh.check_history(path)
        assert verdict["ok"] is True and verdict["gated"] is False
        assert verdict["records"] == 2 and verdict["full_records"] == 1

    def test_median_absorbs_one_noisy_run(self, tmp_path):
        path = _seed(
            tmp_path,
            [_report(), _report(seconds=5.0), _report(), _report(seconds=1.2)],
        )
        assert bh.check_history(path)["ok"] is True

    def test_trailing_window_bounds_the_baseline(self, tmp_path):
        """Old fast records beyond the window can't gate the present."""
        path = _seed(
            tmp_path,
            [_report(seconds=0.1)] * 3 + [_report(seconds=3.0)] * 4,
        )
        assert bh.check_history(path, trailing=3)["ok"] is True


class TestCommittedHistory:
    def test_repo_history_passes_check(self):
        """The committed seeds must keep ``--check`` green."""
        assert bh.main(["--check"]) == 0

    def test_repo_history_has_all_three_benches(self):
        files = bh._history_files(bh.DEFAULT_HISTORY_DIR, ())
        names = {bh.bench_name(path) for path in files}
        assert {"block_inference", "training", "quantized_inference"} <= names
        for path in files:
            for record in bh.load_history(path):
                assert record["summary"], f"empty summary in {path}"


class TestCli:
    def test_trend_renders_sparklines(self, tmp_path, capsys):
        _seed(tmp_path, [_report(seconds=s) for s in (1.0, 1.5, 2.0)])
        code = bh.main(["--history-dir", str(tmp_path / "history")])
        out = capsys.readouterr().out
        assert code == 0
        assert "demo — 3 record(s)" in out
        assert "stages.encode.seconds" in out

    def test_check_regression_exits_one_with_attribution(
        self, tmp_path, capsys
    ):
        _seed(tmp_path, [_report(), _report(), _report(seconds=2.5)])
        code = bh.main(
            ["--check", "--history-dir", str(tmp_path / "history")]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "demo: REGRESSED" in out
        assert "stages.encode.seconds: 1 -> 2.5" in out

    def test_check_json_emits_verdicts(self, tmp_path, capsys):
        _seed(tmp_path, [_report(), _report()])
        code = bh.main(
            ["--check", "--json", "--history-dir", str(tmp_path / "history")]
        )
        verdicts = json.loads(capsys.readouterr().out)
        assert code == 0
        assert verdicts[0]["bench"] == "demo" and verdicts[0]["ok"] is True

    def test_missing_history_dir_exits_two(self, tmp_path, capsys):
        code = bh.main(["--history-dir", str(tmp_path / "nope")])
        assert code == 2
        assert "no history" in capsys.readouterr().err

    def test_corrupt_history_exits_two(self, tmp_path, capsys):
        history_dir = tmp_path / "history"
        history_dir.mkdir()
        (history_dir / "bad.jsonl").write_text("{not json\n")
        code = bh.main(["--check", "--history-dir", str(history_dir)])
        assert code == 2
        assert "error reading" in capsys.readouterr().err
