"""Span tracing: nesting, ordering, attributes, and exception unwind."""

import pytest

from repro import obs
from repro.obs import Tracer, current_span


class TestNesting:
    def test_parent_links_and_finish_order(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            with tracer.span("sibling") as sibling:
                assert sibling.parent_id == outer.span_id
        assert outer.parent_id is None
        # Finish order is inner-before-outer.
        assert [span.name for span in tracer.finished()] == [
            "inner", "sibling", "outer",
        ]

    def test_span_ids_are_unique_across_tracers(self):
        first, second = Tracer(), Tracer()
        with first.span("a") as a:
            with second.span("b") as b:
                assert b.span_id != a.span_id
                # Nesting crosses tracers through the shared context var.
                assert b.parent_id == a.span_id

    def test_current_span_tracks_innermost(self):
        tracer = Tracer()
        assert current_span() is None
        with tracer.span("outer") as outer:
            assert current_span() is outer
            with tracer.span("inner") as inner:
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is None

    def test_durations_are_measured_and_inclusive(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.finished()
        assert outer.duration >= inner.duration >= 0.0


class TestAttributesAndStatus:
    def test_attributes_from_kwargs_and_set_attribute(self):
        tracer = Tracer()
        with tracer.span("s", batch=4) as span:
            span.set_attribute("waste", 0.25)
        record = tracer.finished()[0].to_dict()
        assert record["attributes"] == {"batch": 4, "waste": 0.25}
        assert record["status"] == "ok"
        assert "error" not in record

    def test_exception_unwinds_with_error_status(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        inner, outer = tracer.finished()
        assert inner.status == outer.status == "error"
        assert inner.error == outer.error == "RuntimeError"
        assert inner.duration is not None and outer.duration is not None
        # The context-local stack fully unwound.
        assert current_span() is None

    def test_traced_decorator(self):
        tracer = Tracer()

        @tracer.traced()
        def work(x):
            return x + 1

        assert work(1) == 2
        (span,) = tracer.finished()
        assert span.name.endswith("work")


class TestAggregation:
    def test_breakdown_matches_stage_profile_shape(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("encode"):
                pass
        with tracer.span("decode"):
            pass
        breakdown = tracer.breakdown()
        assert set(breakdown) == {"encode", "decode"}
        assert breakdown["encode"]["calls"] == 3
        assert breakdown["decode"]["calls"] == 1
        assert sum(entry["fraction"] for entry in breakdown.values()) == (
            pytest.approx(1.0)
        )

    def test_reset_forgets_finished_spans(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.reset()
        assert tracer.finished() == []
        assert tracer.breakdown() == {}

    def test_on_finish_streams_each_span(self):
        seen = []
        tracer = Tracer(on_finish=seen.append)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert [span.name for span in seen] == ["b", "a"]


class TestStageProfileShim:
    """A private Tracer times named stages: accumulation and breakdown()."""

    def test_delegates_to_tracer(self):
        tracer = Tracer()
        with tracer.span("encode"):
            pass
        with tracer.span("encode"):
            pass
        assert tracer.calls_by_name() == {"encode": 2}
        assert tracer.seconds_by_name()["encode"] >= 0.0
        breakdown = tracer.breakdown()
        assert breakdown["encode"]["calls"] == 2
        assert breakdown["encode"]["seconds"] == pytest.approx(
            sum(tracer.seconds_by_name().values())
        )

    def test_nests_under_session_spans(self):
        tracer = Tracer()
        session = obs.Telemetry()
        with obs.use_telemetry(session):
            with obs.trace("predict_batch"):
                with tracer.span("encode"):
                    pass
        (outer,) = session.tracer.finished()
        (stage,) = tracer.finished()
        assert stage.parent_id == outer.span_id
