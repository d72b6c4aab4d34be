"""Unit tests for the timing/profiling helpers in ``repro.eval.timing``."""

import time

import numpy as np
import pytest

from repro.eval import LatencyStats, measure_latency, time_per_resume
from repro.obs import Tracer


class TestLatencyStats:
    def test_percentiles_and_throughput(self):
        samples = [0.1, 0.2, 0.3, 0.4]
        stats = LatencyStats.from_samples(samples)
        assert stats.count == 4
        assert stats.total_seconds == pytest.approx(1.0)
        assert stats.mean == pytest.approx(0.25)
        assert stats.p50 == pytest.approx(np.percentile(samples, 50))
        assert stats.p95 == pytest.approx(np.percentile(samples, 95))
        assert stats.throughput == pytest.approx(4.0)

    def test_unit_normalisation(self):
        # Two batched calls, 8 documents each: per-unit latency is sample/8.
        stats = LatencyStats.from_samples([0.8, 1.6], units=[8, 8])
        assert stats.mean == pytest.approx(0.15)
        assert stats.throughput == pytest.approx(16 / 2.4)

    def test_to_dict_round_trip(self):
        stats = LatencyStats.from_samples([0.5])
        d = stats.to_dict()
        assert d["count"] == 1
        assert d["p50_seconds"] == pytest.approx(0.5)
        assert d["throughput_per_second"] == pytest.approx(2.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            LatencyStats.from_samples([])
        with pytest.raises(ValueError):
            LatencyStats.from_samples([0.1, 0.2], units=[1])
        with pytest.raises(ValueError):
            LatencyStats.from_samples([0.1], units=[0])


class TestStageProfile:
    """Per-stage wall time comes from accumulated spans of an obs.Tracer."""

    def test_accumulates_across_entries(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("encode"):
                time.sleep(0.001)
        with tracer.span("decode"):
            time.sleep(0.001)
        assert tracer.calls_by_name() == {"encode": 3, "decode": 1}
        assert tracer.seconds_by_name()["encode"] > 0
        breakdown = tracer.breakdown()
        assert set(breakdown) == {"encode", "decode"}
        total_fraction = sum(entry["fraction"] for entry in breakdown.values())
        assert total_fraction == pytest.approx(1.0)

    def test_records_time_even_when_stage_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("encode"):
                raise RuntimeError("boom")
        assert tracer.calls_by_name()["encode"] == 1
        assert tracer.breakdown()["encode"]["calls"] == 1


class TestMeasureLatency:
    def test_counts_warmup_separately(self):
        calls = []
        stats = measure_latency(calls.append, ["a", "b"], repeats=2, warmup=1)
        # warmup re-runs the first input, then 2 repeats x 2 inputs.
        assert calls == ["a", "a", "b", "a", "b"]
        assert stats.count == 4

    def test_unit_counts_align(self):
        stats = measure_latency(
            lambda chunk: None, [[1, 2], [3]], repeats=1, warmup=0,
            unit_counts=[2, 1],
        )
        assert stats.count == 2
        with pytest.raises(ValueError):
            measure_latency(lambda chunk: None, [[1]], unit_counts=[1, 2])

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            measure_latency(lambda x: None, [])


class TestTimePerResume:
    def test_mean_over_documents(self):
        seen = []
        value = time_per_resume(seen.append, ["d1", "d2"], repeats=2, warmup=1)
        assert value > 0
        assert seen == ["d1", "d1", "d2", "d1", "d2"]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            time_per_resume(lambda d: None, [])
