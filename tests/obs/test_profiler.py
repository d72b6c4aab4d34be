"""Sampling profiler: attribution correctness and the disabled fast path.

Two kinds of guarantee.  *Disabled*: constructing nothing keeps the span
enter/exit path at one module-global truthiness check and the thread
registry empty — the no-op trace stays in the same time class as
``test_noop_overhead`` pins.  *Enabled*: a seeded busy loop inside a span
must dominate the sample population, the hot function must be the loop
body, and ``profile`` events must land in the run log as summation-exact
deltas.
"""

import threading
import time

from repro import obs
from repro.obs import tracing
from repro.obs.profiler import DEFAULT_PROFILE_HZ, Profiler, collapse_frame
from repro.obs.report import aggregate_profile


def _best_of(rounds, fn):
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _burn(seconds):
    """Deterministic CPU burn: the function the sampler must catch."""
    deadline = time.perf_counter() + seconds
    value = 0
    while time.perf_counter() < deadline:
        for i in range(200):
            value += i * i
    return value


class TestDisabledPath:
    def test_no_profiler_means_no_thread_tracking(self):
        assert not tracing._TRACKING
        assert tracing.span_stacks_snapshot() == {}

    def test_span_registry_untouched_without_profiler(self):
        with obs.telemetry() as tel:
            with obs.trace("plain"):
                assert tracing._THREAD_STACKS == {}
        assert tel.profiler is None

    def test_noop_trace_overhead_unchanged(self):
        """Profiler support must not tax the session-off fast path."""
        assert obs.get_telemetry() is None
        calls = 20_000

        def instrumented():
            for _ in range(calls):
                with obs.trace("hot"):
                    pass

        per_call = _best_of(5, instrumented) / calls
        assert per_call < 5e-6, (
            f"no-op trace costs {per_call * 1e6:.2f}µs/call with profiler "
            "support compiled in; the fast path regressed"
        )

    def test_session_without_profiler_span_overhead(self):
        """With a session but no profiler, span enter/exit pays only the
        ``_TRACKING`` truthiness check on top of the previous cost."""
        calls = 5_000
        with obs.telemetry():
            def spans():
                for _ in range(calls):
                    with obs.trace("hot"):
                        pass

            per_call = _best_of(5, spans) / calls
        assert per_call < 5e-5, (
            f"traced span costs {per_call * 1e6:.2f}µs/call without a "
            "profiler; the tracking guard is too expensive"
        )

    def test_tracking_refcount_restores_disabled_state(self):
        tracing.enable_span_thread_tracking()
        tracing.enable_span_thread_tracking()
        assert tracing._TRACKING
        tracing.disable_span_thread_tracking()
        assert tracing._TRACKING  # still one holder
        tracing.disable_span_thread_tracking()
        assert not tracing._TRACKING
        assert tracing.span_stacks_snapshot() == {}


class TestCollapse:
    def test_collapse_frame_shape(self):
        import sys

        frame = sys._getframe()
        collapsed, leaf = collapse_frame(frame)
        assert leaf.endswith(":test_collapse_frame_shape")
        assert collapsed.split(";")[-1] == leaf  # root first, leaf last

    def test_depth_cap_keeps_leaf_frames(self):
        import sys

        def deep(n):
            if n:
                return deep(n - 1)
            return collapse_frame(sys._getframe(), max_depth=4)

        collapsed, leaf = deep(10)
        parts = collapsed.split(";")
        assert parts[0] == "..."
        assert len(parts) == 5  # marker + 4 leaf-most frames
        assert leaf.endswith(":deep")

    def test_invalid_hz_rejected(self):
        try:
            Profiler(hz=0)
        except ValueError:
            pass
        else:
            raise AssertionError("hz=0 must be rejected")


class TestAggregate:
    def test_deltas_sum_and_watermarks_max(self):
        def event(count, rss, span_rss):
            return {
                "event": "profile", "hz": 100.0, "samples": count,
                "stacks": [{"thread": "MainThread", "stack": "a;b",
                            "count": count}],
                "memory": {"peak_rss_bytes": rss,
                           "span_peak_rss_bytes": {"fit": span_rss}},
            }

        aggregated = aggregate_profile([event(3, 10, 7), event(2, 8, 9)])
        assert aggregated["samples"] == 5
        assert aggregated["stacks"] == [
            {"thread": "MainThread", "stack": "a;b", "count": 5}
        ]
        assert aggregated["memory"] == {
            "peak_rss_bytes": 10, "span_peak_rss_bytes": {"fit": 9}
        }


class TestSampling:
    def test_busy_loop_dominates_samples(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with obs.telemetry(run_log=path, profile_hz=250) as tel:
            with obs.trace("hot_span"):
                _burn(0.4)
        profile = tel.summary()["profile"]
        assert profile["samples"] >= 10, (
            f"only {profile['samples']} samples over a 0.4s burn at 250hz"
        )
        functions = {f["function"]: f["samples"]
                     for f in profile["hot_functions"]}
        burn_samples = sum(
            count for name, count in functions.items()
            if name.endswith(":_burn")
        )
        assert burn_samples / profile["samples"] >= 0.5, (
            f"_burn holds {burn_samples}/{profile['samples']} samples; "
            f"hot functions: {functions}"
        )
        self_time = profile["span_self_time"]
        assert "hot_span" in self_time
        top_span = max(self_time, key=lambda k: self_time[k]["samples"])
        assert top_span == "hot_span"

    def test_profile_events_stream_and_sum(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        profiler = Profiler(hz=250, flush_interval=0.1)
        with obs.telemetry(run_log=path, profiler=profiler) as tel:
            with obs.trace("hot_span"):
                _burn(0.4)
        events = obs.read_run_log(path)
        profiles = [e for e in events if e["event"] == "profile"]
        assert len(profiles) >= 2  # periodic flushes plus the final one
        summed = sum(e["samples"] for e in profiles)
        assert summed == tel.summary()["profile"]["samples"]
        aggregated = aggregate_profile(events)
        assert aggregated["samples"] == summed
        # the log and the in-memory summary agree on the hot function
        assert aggregated["hot_functions"][0]["function"].endswith(":_burn")
        # profile events must precede the final metric snapshot so a
        # reader of the closed log sees the complete delta chain
        kinds = [e["event"] for e in events]
        assert kinds.index("metric_snapshot") > max(
            i for i, k in enumerate(kinds) if k == "profile"
        )

    def test_sampler_only_metric_is_bounded(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with obs.telemetry(run_log=path, profile_hz=250) as tel:
            _burn(0.2)
        snapshot = tel.metrics.snapshot()
        profiler_metrics = [k for k in snapshot if k.startswith("profiler.")]
        assert profiler_metrics == ["profiler.samples"]
        labels = {
            tuple(sorted(series["labels"]))
            for series in snapshot["profiler.samples"]["series"]
        }
        assert labels == {("thread",)}  # never stack identity

    def test_stop_is_idempotent_and_leaves_tracking_off(self):
        profiler = Profiler(hz=200)
        profiler.start()
        assert tracing._TRACKING
        time.sleep(0.05)
        profiler.stop()
        profiler.stop()
        assert not profiler.running
        assert not tracing._TRACKING

    def test_memory_watermarks_recorded(self):
        profiler = Profiler(hz=250)
        with obs.telemetry(profiler=profiler) as tel:
            with obs.trace("memory_span"):
                _burn(0.25)
        memory = tel.summary()["profile"]["memory"]
        # /proc/self/statm exists on the CI runners; peaks are plausible
        assert memory.get("peak_rss_bytes", 0) > 1 << 20
        assert memory.get("span_peak_rss_bytes", {}).get("memory_span", 0) > 0

    def test_other_threads_are_sampled_and_named(self):
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                sum(i for i in range(100))

        worker = threading.Thread(target=spin, name="busy-helper")
        worker.start()
        try:
            profiler = Profiler(hz=250)
            with obs.telemetry(profiler=profiler) as tel:
                time.sleep(0.3)
        finally:
            stop.set()
            worker.join()
        stacks = tel.summary()["profile"]["stacks"]
        assert any(s["thread"] == "busy-helper" for s in stacks)

    def test_default_hz_is_not_a_round_divisor(self):
        # phase-locking guard: 67hz must not divide common 10/100/1000hz
        # periodic work; a refactor to a round number silently reintroduces
        # aliasing artifacts
        assert DEFAULT_PROFILE_HZ == 67.0
