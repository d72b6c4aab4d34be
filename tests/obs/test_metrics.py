"""Metrics registry: series semantics, snapshots, and thread safety."""

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

    def test_help_backfills_on_reregistration(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c", help="added later").inc()
        assert registry.snapshot()["c"]["help"] == "added later"

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

