"""Integration tests for the end-to-end ResumeParser pipeline."""

import numpy as np
import pytest

from repro import obs
from repro.core import (
    BlockClassifier,
    BlockTrainer,
    Featurizer,
    HierarchicalEncoder,
    LabeledDocument,
    ResuFormerConfig,
)
from repro.corpus import ContentConfig, ResumeGenerator, extract_block_examples
from repro.docmodel import (
    BLOCK_ENTITIES,
    BLOCK_SCHEME,
    InvalidDocumentError,
    Page,
    ResumeDocument,
)
from repro.ner import NerConfig, NerTagger
from repro.pipeline import ParsedResume, ResumeParser
from repro.text import WordPieceTokenizer


@pytest.fixture(scope="module")
def world():
    docs = ResumeGenerator(seed=77, content_config=ContentConfig.tiny()).batch(6)
    tokenizer = WordPieceTokenizer.train(
        [s.text for d in docs for s in d.sentences], vocab_size=500, min_frequency=1
    )
    config = ResuFormerConfig(
        vocab_size=len(tokenizer.vocab),
        hidden_dim=32,
        sentence_layers=1,
        sentence_heads=2,
        document_layers=1,
        document_heads=2,
        visual_proj_dim=8,
        dropout=0.0,
    )
    featurizer = Featurizer(tokenizer, config)
    encoder = HierarchicalEncoder(config, rng=np.random.default_rng(1))
    classifier = BlockClassifier(
        encoder, featurizer, lstm_hidden=16, rng=np.random.default_rng(2)
    )
    trainer = BlockTrainer(classifier, encoder_lr=1e-3, head_lr=1e-2, seed=0)
    trainer.fit(
        [LabeledDocument.from_gold(d) for d in docs[:4]],
        validation=[LabeledDocument.from_gold(docs[4])],
        epochs=3,
        patience=3,
    )
    ner_config = NerConfig(
        vocab_size=len(tokenizer.vocab),
        hidden_dim=32, layers=1, heads=2, lstm_hidden=16, dropout=0.0,
    )
    tagger = NerTagger(ner_config, tokenizer, rng=np.random.default_rng(3))
    return docs, classifier, tagger


class TestResumeParser:
    def test_parse_returns_blocks(self, world):
        docs, classifier, tagger = world
        parser = ResumeParser(classifier, tagger)
        parsed = parser.parse(docs[5])
        assert isinstance(parsed, ParsedResume)
        assert parsed.doc_id == docs[5].doc_id
        assert parsed.blocks  # at least one block found

    def test_blocks_partition_sentences(self, world):
        docs, classifier, tagger = world
        parser = ResumeParser(classifier, tagger)
        parsed = parser.parse(docs[5])
        seen = [i for b in parsed.blocks for i in b.sentence_indices]
        assert len(seen) == len(set(seen))  # no overlap
        assert all(0 <= i < docs[5].num_sentences for i in seen)

    def test_entities_only_in_allowed_blocks(self, world):
        docs, classifier, tagger = world
        parser = ResumeParser(classifier, tagger)
        parsed = parser.parse(docs[5])
        for block in parsed.blocks:
            allowed = BLOCK_ENTITIES.get(block.tag, ())
            for entity in block.entities:
                assert entity.tag in allowed

    def test_parse_without_ner(self, world):
        docs, classifier, _ = world
        parser = ResumeParser(classifier, ner_tagger=None)
        parsed = parser.parse(docs[5])
        assert all(not b.entities for b in parsed.blocks)

    def test_to_dict_roundtrip(self, world):
        import json

        docs, classifier, tagger = world
        parser = ResumeParser(classifier, tagger)
        payload = parser.parse(docs[5]).to_dict()
        encoded = json.dumps(payload)
        assert json.loads(encoded)["doc_id"] == docs[5].doc_id

    def test_blocks_by_tag(self, world):
        docs, classifier, tagger = world
        parser = ResumeParser(classifier, tagger)
        parsed = parser.parse(docs[5])
        for tag in ("WorkExp", "Title"):
            for block in parsed.blocks_by_tag(tag):
                assert block.tag == tag

    def test_segment_to_ner_examples(self, world):
        from repro.docmodel import BLOCK_ENTITIES
        from repro.pipeline import segment_to_ner_examples

        docs, classifier, _ = world
        examples = segment_to_ner_examples(classifier, docs[:3])
        assert examples, "trained classifier should find entity-bearing blocks"
        for example in examples:
            assert example.block_tag in BLOCK_ENTITIES
            assert example.words
            assert example.labels == ["O"] * len(example.words)

    def test_trained_classifier_recovers_gold_blocks(self, world):
        # After a short fit, predictions should beat the all-O/random floor
        # on a training document (the single-column ones are easiest).
        docs, classifier, _ = world
        agreements = []
        for doc in docs[:4]:
            predicted = classifier.predict(doc)
            gold = BLOCK_SCHEME.decode(doc.block_iob_labels(BLOCK_SCHEME))
            agreements.append(
                sum(p == g for p, g in zip(predicted, gold)) / len(gold)
            )
        assert max(agreements) > 0.3


@pytest.fixture(scope="module")
def mixed_batch(world):
    """4 tiny and 4 paper resumes, interleaved."""
    docs = world[0]
    paper = ResumeGenerator(seed=78, content_config=ContentConfig.paper()).batch(4)
    return [d for pair in zip(docs[:4], paper) for d in pair]


def _twin(classifier, tagger):
    """Parameter-identical copies, so quantizing never touches the fixture."""
    encoder = HierarchicalEncoder(
        classifier.encoder.config, rng=np.random.default_rng(0)
    )
    twin = BlockClassifier(
        encoder, classifier.featurizer, lstm_hidden=classifier.lstm_hidden,
        rng=np.random.default_rng(0),
    )
    twin.load_state_dict(classifier.state_dict())
    return twin, tagger.clone()


def _blank(docs):
    return ResumeDocument("blank", docs[0].pages, [])


class TestBatchInvariance:
    @pytest.mark.parametrize("precision", ["float64", "int8"])
    def test_parsed_resume_independent_of_batch(self, world, mixed_batch, precision):
        docs, classifier, tagger = world
        if precision == "int8":
            classifier, tagger = _twin(classifier, tagger)
            calibration = [docs[4], docs[5]]
            classifier.quantize_for_inference(calibration)
            tagger.quantize_for_inference(extract_block_examples(calibration))
        parser = ResumeParser(classifier, tagger)
        alone = [parser.parse(d).to_dict() for d in mixed_batch]
        batched = [p.to_dict() for p in parser.parse_batch(mixed_batch)]
        reversed_ = [p.to_dict() for p in parser.parse_batch(mixed_batch[::-1])]
        assert batched == alone
        assert reversed_[::-1] == alone
        assert any(b["entities"] for r in alone for b in r["blocks"])

    def test_int8_output_independent_of_what_was_served_first(
        self, world, mixed_batch
    ):
        # Two int8 parsers with the same weights and the same calibration
        # slice, warmed on different batches, parse a document alike.
        docs, classifier, tagger = world
        calibration = [docs[4], docs[5]]
        parsed = []
        for warmup in (mixed_batch[:4], mixed_batch[3:7]):
            twin_classifier, twin_tagger = _twin(classifier, tagger)
            twin_classifier.quantize_for_inference(calibration)
            twin_tagger.quantize_for_inference(extract_block_examples(calibration))
            parser = ResumeParser(twin_classifier, twin_tagger)
            parser.parse_batch(warmup)
            parsed.append(parser.parse(mixed_batch[7]).to_dict())
        assert parsed[0] == parsed[1]

    def test_blocks_and_spans_are_well_formed(self, world, mixed_batch):
        docs, classifier, tagger = world
        for document, parsed in zip(
            mixed_batch, ResumeParser(classifier, tagger).parse_batch(mixed_batch)
        ):
            indices = [i for b in parsed.blocks for i in b.sentence_indices]
            assert indices == sorted(set(indices))
            assert all(0 <= i < document.num_sentences for i in indices)
            for block in parsed.blocks:
                words = sum(
                    len(document.sentences[i].words) for i in block.sentence_indices
                )
                assert all(0 <= e.start < e.stop <= words for e in block.entities)


class TestBlankResume:
    def test_blank_document_alone(self, world):
        docs, classifier, tagger = world
        parser = ResumeParser(classifier, tagger)
        parsed = parser.parse(_blank(docs))
        assert parsed.doc_id == "blank" and parsed.blocks == []
        assert [p.blocks for p in parser.parse_batch([_blank(docs)])] == [[]]

    def test_blank_document_inside_a_batch(self, world):
        docs, classifier, tagger = world
        parser = ResumeParser(classifier, tagger)
        expected = [parser.parse(d).to_dict() for d in docs[:3]]
        parsed = parser.parse_batch([docs[0], _blank(docs), docs[1], docs[2]])
        assert parsed[1].blocks == []
        assert [p.to_dict() for i, p in enumerate(parsed) if i != 1] == expected


class TestInvalidDocument:
    @pytest.mark.parametrize("defect", ["zero-width", "missing-page"])
    def test_parse_batch_raises_typed_error(self, world, defect):
        docs, classifier, tagger = world
        source = docs[0]
        if defect == "zero-width":
            pages = [Page(p.number, 0.0, p.height) for p in source.pages]
        else:
            pages = [Page(p.number + 100, p.width, p.height) for p in source.pages]
        bad = ResumeDocument(defect, pages, source.sentences)
        parser = ResumeParser(classifier, tagger)
        for batch in ([bad], [docs[1], bad, docs[2]]):
            with pytest.raises(InvalidDocumentError) as raised:
                parser.parse_batch(batch)
            assert raised.value.doc_id == defect
            assert defect in str(raised.value)
        assert isinstance(raised.value, ValueError)
        # A blank resume is never featurised, so its pages are never read.
        assert parser.parse(ResumeDocument("blank", pages, [])).blocks == []


class TestPipelineTelemetry:
    def test_one_span_per_stage_and_per_document_counters(self, world):
        docs, classifier, tagger = world
        session = obs.Telemetry()
        with obs.use_telemetry(session):
            parsed = ResumeParser(classifier, tagger).parse_batch(docs[:3])
        summary = session.summary()
        spans = summary["spans"]
        for name in ("pipeline.parse", "pipeline.segment",
                     "pipeline.extract_entities"):
            assert spans[name]["calls"] == 1, name
        metrics = summary["metrics"]
        assert metrics["pipeline.documents"]["series"][0]["value"] == 3
        blocks = sum(s["value"] for s in metrics["pipeline.blocks"]["series"])
        assert blocks == sum(len(p.blocks) for p in parsed)
