"""Metrics registry: series semantics, export, and thread safety."""

import io
import json
import threading

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("cache.hits")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labeled_series_are_independent(self):
        counter = Counter("requests")
        counter.inc(path="hit")
        counter.inc(path="hit")
        counter.inc(path="miss")
        assert counter.value(path="hit") == 2.0
        assert counter.value(path="miss") == 1.0
        assert counter.value() == 0.0  # unlabeled series untouched

    def test_label_order_is_canonical(self):
        counter = Counter("c")
        counter.inc(a="1", b="2")
        assert counter.value(b="2", a="1") == 1.0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1.0)

    def test_snapshot_shape(self):
        counter = Counter("c", help="docs")
        counter.inc(kind="x")
        dump = counter.snapshot()
        assert dump["name"] == "c"
        assert dump["kind"] == "counter"
        assert dump["help"] == "docs"
        assert dump["series"] == [{"labels": {"kind": "x"}, "value": 1.0}]


class TestGauge:
    def test_set_is_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        gauge.set(7.0)
        assert gauge.value() == 7.0

    def test_inc_may_go_negative(self):
        gauge = Gauge("g")
        gauge.inc(-2.0)
        assert gauge.value() == -2.0


class TestHistogram:
    def test_bucketing_and_stats(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        dump = hist.value()
        assert dump["count"] == 4
        assert dump["sum"] == pytest.approx(105.0)
        assert dump["min"] == 0.5
        assert dump["max"] == 100.0
        assert dump["buckets"] == {"1.0": 1, "2.0": 1, "4.0": 1, "+Inf": 1}

    def test_boundary_is_inclusive(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(1.0)
        assert hist.value()["buckets"]["1.0"] == 1

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_never_written_series_is_zeroed(self):
        dump = Histogram("h", buckets=(1.0,)).value()
        assert dump["count"] == 0
        assert dump["min"] == 0.0


class TestHistogramPercentiles:
    def test_interpolates_within_a_bucket(self):
        hist = Histogram("h", buckets=(10.0, 20.0, 30.0))
        for value in (12.0, 14.0, 16.0, 18.0):
            hist.observe(value)
        # all mass in the (10, 20] bucket: p50 lands mid-bucket
        assert hist.percentile(50) == pytest.approx(15.0)
        assert 10.0 < hist.percentile(95) <= 20.0

    def test_first_bucket_uses_observed_min_as_lower_edge(self):
        hist = Histogram("h", buckets=(100.0,))
        hist.observe(40.0)
        hist.observe(60.0)
        # naive interpolation from 0 would say 50 at p50 is below min
        assert hist.percentile(0) >= 40.0
        assert hist.percentile(100) == pytest.approx(60.0)

    def test_overflow_bucket_is_capped_at_observed_max(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(50.0)
        hist.observe(70.0)
        assert hist.percentile(99) <= 70.0

    def test_estimates_are_monotone_and_clamped(self):
        hist = Histogram("h", buckets=(0.01, 0.1, 1.0, 10.0))
        for value in (0.005, 0.05, 0.05, 0.5, 0.5, 0.5, 5.0, 20.0):
            hist.observe(value)
        estimates = [hist.percentile(q) for q in (1, 25, 50, 75, 95, 99)]
        assert estimates == sorted(estimates)
        assert all(0.005 <= e <= 20.0 for e in estimates)

    def test_empty_series_and_bad_q(self):
        hist = Histogram("h")
        assert hist.percentile(95) == 0.0
        with pytest.raises(ValueError):
            hist.percentile(-1)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_labeled_series_are_independent(self):
        hist = Histogram("h", buckets=(10.0,))
        hist.observe(2.0, stage="a")
        hist.observe(8.0, stage="b")
        assert hist.percentile(50, stage="a") < hist.percentile(50, stage="b")

    def test_snapshot_carries_percentile_keys(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(1.5)
        dump = hist.value()
        assert {"p50", "p95", "p99"} <= set(dump)
        assert 1.0 < dump["p50"] <= 1.5  # capped at the observed max


class TestTimer:
    def test_time_context_observes_once(self):
        timer = Timer("t")
        with timer.time(stage="encode"):
            pass
        dump = timer.value(stage="encode")
        assert dump["count"] == 1
        assert dump["sum"] >= 0.0


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.timer("t") is registry.timer("t")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_histogram_bucket_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="different buckets"):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_timer_is_not_a_plain_histogram(self):
        registry = MetricsRegistry()
        registry.histogram("h")
        with pytest.raises(ValueError):
            registry.timer("h")

    def test_names_contains_iter(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.gauge("a")
        assert registry.names() == ["a", "b"]
        assert "a" in registry
        assert "zz" not in registry
        assert {m.name for m in registry} == {"a", "b"}

    def test_snapshot_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        snap = registry.snapshot()
        assert snap["c"]["series"][0]["value"] == 5.0
        registry.reset()
        assert registry.snapshot()["c"]["series"] == []
        assert "c" in registry  # names survive a reset

    def test_to_jsonl_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2, kind="x")
        registry.gauge("g").set(1.5)
        buffer = io.StringIO()
        lines = registry.to_jsonl(buffer)
        records = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert lines == len(records) == 2
        by_name = {r["name"]: r for r in records}
        assert by_name["c"] == {
            "name": "c", "kind": "counter", "labels": {"kind": "x"}, "value": 2.0,
        }
        assert by_name["g"]["value"] == 1.5

    def test_to_jsonl_path(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        path = tmp_path / "metrics.jsonl"
        assert registry.to_jsonl(str(path)) == 1
        assert json.loads(path.read_text())["value"] == 1.0

    def test_default_latency_buckets_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestThreadSafety:
    def test_concurrent_counter_increments_are_exact(self):
        registry = MetricsRegistry()
        threads, increments = 8, 2000
        barrier = threading.Barrier(threads)

        def work(worker):
            counter = registry.counter("hits")
            barrier.wait()
            for _ in range(increments):
                counter.inc()
                counter.inc(worker=worker % 2)

        pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        counter = registry.counter("hits")
        assert counter.value() == threads * increments
        assert (
            counter.value(worker=0) + counter.value(worker=1)
            == threads * increments
        )

    def test_concurrent_histogram_observes_are_exact(self):
        hist = Histogram("h", buckets=(0.5,))
        threads, observations = 8, 1000
        barrier = threading.Barrier(threads)

        def work():
            barrier.wait()
            for _ in range(observations):
                hist.observe(0.25)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        dump = hist.value()
        assert dump["count"] == threads * observations
        assert dump["buckets"]["0.5"] == threads * observations


def _exposition_registry() -> MetricsRegistry:
    """Deterministic registry the Prometheus golden file pins."""
    registry = MetricsRegistry()
    counter = registry.counter("cache.hits", help="feature cache hits")
    counter.inc(3, stage="encode")
    counter.inc(1, stage="decode")
    registry.gauge("queue.depth").set(4)
    hist = registry.histogram("batch.size", buckets=(1.0, 2.0, 5.0))
    for value in (0.5, 1.5, 1.5, 4.0, 9.0):
        hist.observe(value)
    timer = registry.timer("step.seconds", buckets=(0.1, 1.0))
    timer.observe(0.05, worker="0")
    timer.observe(0.5, worker="0")
    # Adversarial values the exposition format must escape: backslashes,
    # double quotes and newlines in label values; backslash/newline in
    # help text.
    hostile = registry.counter(
        "hostile.labels", help="weird\\path help\nsecond line"
    )
    hostile.inc(2, path='C:\\dir\\"quoted"\nnext')
    return registry


class TestPrometheusExport:
    GOLDEN = "tests/obs/data/prometheus_export.txt"

    def test_matches_golden_file(self):
        import pathlib

        golden = pathlib.Path(self.GOLDEN)
        assert golden.exists(), (
            f"golden file missing; regenerate with:\n  PYTHONPATH=src python"
            f" -c \"from tests.obs.test_metrics import _exposition_registry;"
            f" print(_exposition_registry().to_prometheus(), end='')\""
            f" > {self.GOLDEN}"
        )
        assert _exposition_registry().to_prometheus() == golden.read_text()

    def test_counters_get_total_suffix_and_sorted_labels(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(2, zone="b", area="a")
        text = registry.to_prometheus()
        assert 'hits_total{area="a",zone="b"} 2.0' in text

    def test_names_are_sanitised(self):
        registry = MetricsRegistry()
        registry.gauge("cache.hit-rate").set(0.5)
        assert "cache_hit_rate 0.5" in registry.to_prometheus()

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("sizes", buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(1.5)
        hist.observe(5.0)
        text = registry.to_prometheus()
        assert 'sizes_bucket{le="1.0"} 1' in text
        assert 'sizes_bucket{le="2.0"} 2' in text
        assert 'sizes_bucket{le="+Inf"} 3' in text
        assert "sizes_count 3" in text

    def test_timer_exports_as_histogram(self):
        registry = MetricsRegistry()
        registry.timer("lat", buckets=(0.1,)).observe(0.05)
        text = registry.to_prometheus()
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="0.1"} 1' in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("odd").inc(1, path='a"b\\c')
        assert 'path="a\\"b\\\\c"' in registry.to_prometheus()

    def test_label_newlines_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("odd").inc(1, path="line1\nline2")
        text = registry.to_prometheus()
        assert 'path="line1\\nline2"' in text
        # The exposition must stay one sample per physical line.
        assert all(
            line.startswith(("#", "odd_total")) for line in text.splitlines()
        )

    def test_help_text_is_escaped(self):
        registry = MetricsRegistry()
        registry.counter("doc", help="has \\slash\nand newline").inc()
        assert "# HELP doc has \\\\slash\\nand newline" in registry.to_prometheus()

    def test_help_backfills_on_reregistration(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c", help="added later").inc()
        assert "# HELP c added later" in registry.to_prometheus()

    def test_empty_registry_is_empty_string(self):
        assert MetricsRegistry().to_prometheus() == ""


class TestValidateExposition:
    def test_own_exposition_is_valid(self):
        assert _exposition_registry().validate_exposition() == []

    def test_module_function_accepts_raw_text(self):
        from repro.obs.metrics import validate_exposition

        text = _exposition_registry().to_prometheus()
        assert validate_exposition(text) == []

    def test_catches_torn_sample_line(self):
        from repro.obs.metrics import validate_exposition

        errors = validate_exposition('x_total{label="v"} ')
        assert errors and "unparseable" in errors[0]

    def test_catches_unescaped_label_newline(self):
        from repro.obs.metrics import validate_exposition

        errors = validate_exposition('x_total{label="a\nb"} 1\n')
        assert errors

    def test_catches_unknown_type(self):
        from repro.obs.metrics import validate_exposition

        errors = validate_exposition("# TYPE x flamegraph\nx 1\n")
        assert any("unknown TYPE" in error for error in errors)

    def test_catches_non_cumulative_buckets(self):
        from repro.obs.metrics import validate_exposition

        text = (
            'h_bucket{le="1.0"} 5\n'
            'h_bucket{le="2.0"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_count 5\n"
        )
        errors = validate_exposition(text)
        assert any("not cumulative" in error for error in errors)

    def test_catches_missing_inf_bucket(self):
        from repro.obs.metrics import validate_exposition

        errors = validate_exposition('h_bucket{le="1.0"} 2\nh_count 2\n')
        assert any("+Inf" in error for error in errors)

    def test_catches_count_mismatch(self):
        from repro.obs.metrics import validate_exposition

        text = 'h_bucket{le="+Inf"} 2\nh_count 5\n'
        errors = validate_exposition(text)
        assert any("_count" in error for error in errors)
