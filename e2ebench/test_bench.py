"""Tests for the benchmark's own arithmetic.

Run from the repository root::

    python3 -m pytest e2ebench/test_bench.py
"""

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import measure  # noqa: E402
import quality  # noqa: E402
import workloads  # noqa: E402
from repro.docmodel import BBox, Page, ResumeDocument, Sentence, Token  # noqa: E402
from repro.obs import Span  # noqa: E402
from repro.pipeline import ParsedBlock, ParsedEntity, ParsedResume  # noqa: E402


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
class TestPercentileRule:
    def test_reports_only_with_ten_samples_beyond(self):
        samples = [float(i) for i in range(1, 101)]
        assert measure.tail_percentile(samples, 90) == 90.0  # 10 lie beyond
        assert measure.tail_percentile(samples[:99], 90) is None  # 9 would

    def test_nearest_rank_on_unsorted_input(self):
        samples = [float(i) for i in range(200, 0, -1)]
        assert measure.tail_percentile(samples, 50) == 100.0
        assert measure.tail_percentile(samples, 95) == 190.0

    def test_samples_for_is_the_smallest_reporting_count(self):
        assert measure.samples_for(90) == 100
        assert measure.samples_for(99) == 1000
        n = measure.samples_for(50)
        assert measure.tail_percentile([1.0] * n, 50) is not None
        assert measure.tail_percentile([1.0] * (n - 1), 50) is None

    def test_empty(self):
        assert measure.tail_percentile([], 50) is None


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
def _raise(_):
    raise ValueError("no sentences")


class TestFailureAccounting:
    def test_raising_call_fails_every_document_it_carried(self):
        log = measure.CallLog()
        seconds, result = measure.timed_call(_raise, None)
        assert isinstance(result, ValueError) and seconds >= 0
        log.record(seconds, [result, result])
        assert (log.calls, log.sent, log.failed, log.succeeded) == (1, 2, 2, 0)
        assert log.call_latencies == [math.inf]
        assert log.doc_latencies == [math.inf, math.inf]
        assert log.errors == {"ValueError": 2}
        assert log.docs_per_s == 0.0

    def test_partial_failure_keeps_the_call_latency(self):
        log = measure.CallLog()
        log.record(2.0, ["ok", ValueError(), "ok"])
        log.record(1.0, ["ok"])
        assert log.call_latencies == [2.0, 1.0]
        assert log.doc_latencies == [2.0, math.inf, 2.0, 1.0]
        assert log.docs_per_s == 1.0  # 3 succeeded in 3 measured seconds
        assert (log.sent, log.failed) == (4, 1)

    def test_failures_push_percentiles_up(self):
        log = measure.CallLog()
        for _ in range(95):
            log.record(1.0, ["ok"])
        for _ in range(5):
            log.record(0.001, [ValueError()])
        assert measure.tail_percentile(log.doc_latencies, 90) == 1.0

    def test_merge(self):
        first, second = measure.CallLog(), measure.CallLog()
        first.record(1.0, ["ok"])
        second.record(3.0, [ValueError(), "ok"])
        first.merge(second)
        assert (first.seconds, first.calls, first.sent, first.failed) == (4.0, 2, 3, 1)

    def test_failure_on_a_resume_is_broken(self):
        outcome = workloads.Outcome()
        harness = workloads.Harness(outcome)
        harness.call(_raise, [_document()], outcome.log, score=False)
        assert outcome.log.failed == 1
        assert outcome.problems == ["doc: ValueError: no sentences"]

    def test_blank_probe_is_reported_not_counted(self):
        outcome = workloads.Outcome()
        workloads.probe_blanks(_raise, seed=1, outcome=outcome)
        assert outcome.blank_probe == {"ValueError": workloads.BLANK_PROBES}
        assert outcome.log.sent == 0 and outcome.problems == []

    def test_blank_probe_checks_a_returned_parse(self):
        outcome = workloads.Outcome()

        def empty_parse(documents):
            return [ParsedResume(documents[0].doc_id, [])]

        workloads.probe_blanks(empty_parse, seed=1, outcome=outcome)
        assert outcome.blank_probe == {"parsed": workloads.BLANK_PROBES}
        assert outcome.problems == []


# ----------------------------------------------------------------------
# Host-speed normalisation
# ----------------------------------------------------------------------
class TestHostSpeed:
    def test_normalise_divides_by_the_mean_sample_over_nominal(self, monkeypatch):
        host = measure.HostSpeed()
        nominal = measure.NOMINAL_REFERENCE_S
        host.samples = [(0.0, 9.0 * nominal), (0.0, 2.0 * nominal)]
        monkeypatch.setattr(host, "sample",
                            lambda: host.samples.append((0.0, 4.0 * nominal)))
        # Sample 1 and the closing one: a host three times slower than nominal.
        assert host.normalise(6.0, since=1) == pytest.approx(2.0)
        assert host.slowdown == pytest.approx(4.0)

    def test_mark_reuses_only_a_fresh_sample(self, monkeypatch):
        host = measure.HostSpeed()
        taken = []

        def sample():
            taken.append(1)
            host.samples.append((measure.time.perf_counter(), 1.0))

        monkeypatch.setattr(host, "sample", sample)
        assert host.mark() == 0 and host.mark() == 0 and len(taken) == 1
        host.samples[-1] = (host.samples[-1][0] - 2 * measure.FRESH_S, 1.0)
        assert host.mark() == 1 and len(taken) == 2

    def test_sample_times_the_reference_kernel(self):
        host = measure.HostSpeed()
        host.sample()
        (_, seconds), = host.samples
        assert 0 < seconds <= host.overhead

    def test_sampling_after_restores_an_inherited_method(self):
        class Base:
            def step(self):
                return "stepped"

        class Child(Base):
            pass

        host = measure.HostSpeed()
        with host.sampling_after(Child, "step"):
            assert Child().step() == "stepped"
            assert "step" in vars(Child)
        assert "step" not in vars(Child) and len(host.samples) == 1
        assert host.overhead > 0


# ----------------------------------------------------------------------
# Self time with nested spans
# ----------------------------------------------------------------------
def _span(name, span_id, parent_id, duration, **attributes):
    return Span(name, span_id, parent_id, 0.0, 0.0, duration,
                attributes=dict(attributes))


class TestSelfTime:
    def spans(self):
        return [
            _span("core.featurize", 3, 2, 1.0, hit=False),
            _span("core.encode", 2, 1, 6.0, docs=1),
            _span("ner.predict", 4, 1, 3.0, examples=5),
            _span("bench.call", 1, None, 10.0),
            _span("persistence.load_parser", 6, 5, 1.5),
            _span("bench.setup", 5, None, 2.0),
        ]

    def test_self_time_subtracts_direct_children_only(self):
        own = layers.self_times(self.spans())
        assert own == {3: 1.0, 2: 5.0, 4: 3.0, 1: 1.0, 6: 1.5, 5: 0.5}

    def test_layer_metrics(self):
        metrics = layers.layer_metrics(self.spans())
        assert metrics["core.encode.busy_s"] == (5.0, "s")
        assert metrics["core.encode.p50_ms"] == (6000.0, "ms")
        assert metrics["core.encode.share"] == (5.0 / 12.0, "ratio")
        assert metrics["core.featurize.calls"] == (1, "count")
        assert metrics["persistence.load_parser.share"] == (1.5 / 12.0, "ratio")
        assert metrics["unattributed.share"] == (1.5 / 12.0, "ratio")
        assert metrics["nn.backward.calls"] == (0, "count")
        assert metrics["ner.examples_per_call"] == (5, "examples")
        assert metrics["core.featurize.hit_ratio"] == (0.0, "ratio")
        assert metrics["core.featurize.lookups"] == (1, "count")

    def test_ratios_ignore_set_up(self):
        spans = self.spans() + [_span("core.encode", 7, 5, 0.1, docs=8)]
        assert layers.layer_metrics(spans)["core.encode.docs_per_call"] == (1, "docs")

    def test_sibling_calls_add_up(self):
        spans = [
            _span("core.encode", 2, 1, 1.0, docs=1),
            _span("core.encode", 3, 1, 2.0, docs=3),
            _span("nn.crf.decode", 4, 3, 0.5),
            _span("bench.call", 1, None, 4.0),
        ]
        metrics = layers.layer_metrics(spans)
        assert metrics["core.encode.busy_s"] == (2.5, "s")
        assert metrics["core.encode.docs_per_call"] == (2, "docs")
        assert metrics["unattributed.share"] == (0.25, "ratio")

    def test_tracer_restores_every_wrapped_call(self):
        from repro import persistence
        from repro.core import Featurizer, batching
        from repro.core import block_classifier
        from repro.nn import AdamW

        before = (Featurizer.featurize, persistence.load_parser,
                  block_classifier.collate_documents)
        with layers.LayerTracer():
            assert Featurizer.featurize is not before[0]
            assert block_classifier.collate_documents is not before[2]
            assert "step" in vars(AdamW)
        assert (Featurizer.featurize, persistence.load_parser,
                block_classifier.collate_documents) == before
        assert batching.collate_documents is before[2]
        assert "step" not in vars(AdamW)


# ----------------------------------------------------------------------
# Block F1, entity F1 and the output invariants
# ----------------------------------------------------------------------
def _token(word, block=None, block_id=None, entity="O"):
    return Token(word, BBox(0, 0, 10, 10), 0, block_tag=block, block_id=block_id,
                 entity_label=entity)


def _document():
    """Four sentences: PInfo (2 sentences), Title, WorkExp."""
    sentences = [
        Sentence([_token("Ada", "PInfo", 0, "B-Name"),
                  _token("Lovelace", "PInfo", 0, "I-Name")], 0),
        Sentence([_token("ada@x.org", "PInfo", 0, "B-Email")], 0),
        Sentence([_token("Experience", "Title", 1)], 0),
        Sentence([_token("Acme", "WorkExp", 2, "B-Company"),
                  _token("engineer", "WorkExp", 2, "B-Position")], 0),
    ]
    return ResumeDocument("doc", [Page(0)], sentences)


def _block(document, tag, indices, entities=()):
    text = " ".join(document.sentences[i].text for i in indices)
    return ParsedBlock(tag, list(indices), text, list(entities))


class TestQuality:
    def test_perfect_parse(self):
        document = _document()
        parsed = ParsedResume("doc", [
            _block(document, "PInfo", [0, 1], [ParsedEntity("Name", "Ada Lovelace", 0, 2),
                                               ParsedEntity("Email", "ada@x.org", 2, 3)]),
            _block(document, "Title", [2]),
            _block(document, "WorkExp", [3], [ParsedEntity("Company", "Acme", 0, 1),
                                              ParsedEntity("Position", "engineer", 1, 2)]),
        ])
        assert quality.violations(document, parsed) == []
        scores = quality.Scores()
        scores.add(document, parsed)
        assert scores.block_f1 == 1.0 and scores.entity_f1 == 1.0

    def test_partial_parse(self):
        document = _document()
        # Sentence 1 left outside any block, sentence 3 mis-tagged; one
        # entity's span is off by a word, one is right.
        parsed = ParsedResume("doc", [
            _block(document, "PInfo", [0], [ParsedEntity("Name", "Ada", 0, 1)]),
            _block(document, "Title", [2]),
            _block(document, "ProjExp", [3]),
        ])
        assert quality.violations(document, parsed) == []
        scores = quality.Scores()
        scores.add(document, parsed)
        # Sentences: 3 predicted, 4 gold, 2 right -> P 2/3, R 1/2.
        assert (scores.block_tp, scores.block_pred, scores.block_gold) == (2, 3, 4)
        assert scores.block_f1 == pytest.approx(4 / 7)
        # Entities: 1 predicted, 4 gold, 0 right.
        assert (scores.entity_tp, scores.entity_pred, scores.entity_gold) == (0, 1, 4)
        assert scores.entity_f1 == 0.0

    def test_entity_offsets_are_block_relative(self):
        document = _document()
        parsed = ParsedResume("doc", [
            _block(document, "WorkExp", [3], [ParsedEntity("Company", "Acme", 0, 1)]),
        ])
        assert quality.predicted_entities(document, parsed) == {(4, 5, "Company")}
        assert (4, 5, "Company") in quality.gold_entities(document)

    def test_failed_document_adds_only_gold(self):
        scores = quality.Scores()
        scores.add(_document(), None)
        assert (scores.block_pred, scores.block_gold) == (0, 4)
        assert (scores.entity_pred, scores.entity_gold) == (0, 4)
        assert scores.block_f1 == 0.0

    def test_broken_invariants_are_reported(self):
        document = _document()
        parsed = ParsedResume("doc", [
            _block(document, "PInfo", [0, 1], [
                ParsedEntity("Company", "Ada", 0, 1),       # tag not allowed
                ParsedEntity("Name", "ada@x.org", 2, 4),    # outside the block
            ]),
            _block(document, "Title", [1, 2]),              # overlaps
            ParsedBlock("WorkExp", [3, 5], "x"),             # not contiguous
        ])
        problems = quality.violations(document, parsed)
        assert len(problems) == 4
        assert "Company entity in a PInfo block" in problems[0]
        assert "outside its 3-word block" in problems[1]
        assert "overlaps" in problems[2]
        assert "not a contiguous" in problems[3]
