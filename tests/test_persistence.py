"""Round-trip tests for model persistence."""

import json

import numpy as np
import pytest

from repro.core import (
    BlockClassifier,
    Featurizer,
    HierarchicalEncoder,
    ResuFormerConfig,
)
from repro.corpus import (
    ContentConfig,
    ResumeGenerator,
    build_ner_corpus,
    extract_block_examples,
)
from repro.ner import NerConfig, NerTagger
from repro.nn import TransformerEncoder
from repro.nn import quantize as nn_quantize
from repro.persistence import (
    load_block_classifier,
    load_ner_tagger,
    load_parser,
    save_block_classifier,
    save_ner_tagger,
    save_parser,
)
from repro.pipeline import ResumeParser
from repro.text import WordPieceTokenizer


@pytest.fixture(scope="module")
def world():
    docs = ResumeGenerator(seed=99, content_config=ContentConfig.tiny()).batch(3)
    tokenizer = WordPieceTokenizer.train(
        (s.text for d in docs for s in d.sentences), vocab_size=400, min_frequency=1
    )
    config = ResuFormerConfig(
        vocab_size=len(tokenizer.vocab),
        hidden_dim=32, sentence_layers=1, sentence_heads=2,
        document_layers=1, document_heads=2, visual_proj_dim=8, dropout=0.0,
    )
    classifier = BlockClassifier(
        HierarchicalEncoder(config, rng=np.random.default_rng(1)),
        Featurizer(tokenizer, config),
        lstm_hidden=16,
        rng=np.random.default_rng(2),
    )
    ner_config = NerConfig(
        vocab_size=len(tokenizer.vocab),
        hidden_dim=32, layers=1, heads=2, lstm_hidden=16, dropout=0.0,
    )
    tagger = NerTagger(ner_config, tokenizer, rng=np.random.default_rng(3))
    return docs, classifier, tagger


class TestBlockClassifierPersistence:
    def test_roundtrip_predictions_identical(self, world, tmp_path):
        docs, classifier, _ = world
        path = str(tmp_path / "clf")
        save_block_classifier(classifier, path)
        restored = load_block_classifier(path)
        assert restored.predict(docs[0]) == classifier.predict(docs[0])

    def test_wrong_kind_rejected(self, world, tmp_path):
        docs, _, tagger = world
        path = str(tmp_path / "ner")
        save_ner_tagger(tagger, path)
        with pytest.raises(ValueError):
            load_block_classifier(path)


class TestNerTaggerPersistence:
    def test_roundtrip_predictions_identical(self, world, tmp_path):
        _, _, tagger = world
        corpus = build_ner_corpus(
            num_train_docs=2, num_validation_docs=1, num_test_docs=1, seed=5
        )
        path = str(tmp_path / "ner")
        save_ner_tagger(tagger, path)
        restored = load_ner_tagger(path)
        assert restored.predict(corpus.test[:2]) == tagger.predict(corpus.test[:2])

    def test_wrong_kind_rejected(self, world, tmp_path):
        _, classifier, _ = world
        path = str(tmp_path / "clf")
        save_block_classifier(classifier, path)
        with pytest.raises(ValueError):
            load_ner_tagger(path)

    def test_float32_tagger_reloads_as_float32(self, world, tmp_path):
        docs, _, tagger = world
        config = NerConfig(**{**vars(tagger.config), "inference_precision": "float32"})
        narrow = NerTagger(config, tagger.featurizer.tokenizer)
        narrow.load_state_dict(tagger.state_dict())
        path = str(tmp_path / "ner32")
        save_ner_tagger(narrow, path)
        restored = load_ner_tagger(path)
        assert vars(restored.config) == vars(narrow.config)
        assert restored.precision == "float32"
        assert {
            m.inference_dtype for m in restored.modules()
            if isinstance(m, TransformerEncoder)
        } == {np.float32}
        examples = extract_block_examples(docs)
        assert restored.predict(examples) == narrow.predict(examples)


class TestParserPersistence:
    def test_full_parser_roundtrip(self, world, tmp_path):
        docs, classifier, tagger = world
        parser = ResumeParser(classifier, tagger)
        path = str(tmp_path / "parser")
        save_parser(parser, path)
        restored = load_parser(path)
        original = parser.parse(docs[1]).to_dict()
        reloaded = restored.parse(docs[1]).to_dict()
        assert original == reloaded

    def test_int8_parser_reloads_bit_identically_without_calibrating(
        self, world, tmp_path, monkeypatch
    ):
        docs, classifier, tagger = world
        save_parser(ResumeParser(classifier, tagger), str(tmp_path / "float"))
        parser = load_parser(str(tmp_path / "float"))  # a copy to quantize
        calibration = [docs[0]]
        parser.block_classifier.quantize_for_inference(calibration)
        parser.ner_tagger.quantize_for_inference(extract_block_examples(calibration))
        path = str(tmp_path / "int8")
        save_parser(parser, path)

        def no_calibration(model):
            raise AssertionError("loading must not calibrate")

        monkeypatch.setattr(nn_quantize, "calibration", no_calibration)
        restored = load_parser(path)
        for model in (restored.block_classifier, restored.ner_tagger):
            assert model.precision == "int8"
        assert nn_quantize.activation_scales(restored.block_classifier) == (
            nn_quantize.activation_scales(parser.block_classifier)
        )
        before = [r.to_dict() for r in parser.parse_batch(docs)]
        assert [r.to_dict() for r in restored.parse_batch(docs)] == before

    def test_int8_artifact_without_scales_raises(self, world, tmp_path):
        docs, classifier, _ = world
        path = str(tmp_path / "clf")
        save_block_classifier(classifier, path)
        restored = load_block_classifier(path)
        restored.quantize_for_inference([docs[0]])
        save_block_classifier(restored, path)
        config_file = tmp_path / "clf" / "config.json"
        payload = json.loads(config_file.read_text())
        assert payload["int8_act_amax"]
        payload["int8_act_amax"] = {}
        config_file.write_text(json.dumps(payload))
        with pytest.raises(nn_quantize.CalibrationError):
            load_block_classifier(path)

    def test_parser_without_ner(self, world, tmp_path):
        docs, classifier, _ = world
        parser = ResumeParser(classifier, None)
        path = str(tmp_path / "parser2")
        save_parser(parser, path)
        restored = load_parser(path)
        assert restored.ner_tagger is None
        assert restored.parse(docs[2]).blocks is not None

    def test_parser_shares_one_tokenizer_when_vocabularies_match(
        self, world, tmp_path
    ):
        docs, classifier, tagger = world
        parser = ResumeParser(classifier, tagger)
        path = str(tmp_path / "shared")
        save_parser(parser, path)
        restored = load_parser(path)
        assert (
            restored.ner_tagger.featurizer.tokenizer
            is restored.block_classifier.featurizer.tokenizer
        )
        before = [r.to_dict() for r in parser.parse_batch(docs)]
        assert [r.to_dict() for r in restored.parse_batch(docs)] == before

    def test_parser_keeps_two_tokenizers_when_vocabularies_differ(
        self, world, tmp_path
    ):
        docs, classifier, _ = world
        ner_tokenizer = WordPieceTokenizer.train(
            (s.text for d in docs for s in d.sentences),
            vocab_size=300, min_frequency=1,
        )
        assert ner_tokenizer.vocab.tokens() != (
            classifier.featurizer.tokenizer.vocab.tokens()
        )
        ner_config = NerConfig(
            vocab_size=len(ner_tokenizer.vocab),
            hidden_dim=32, layers=1, heads=2, lstm_hidden=16, dropout=0.0,
        )
        tagger = NerTagger(ner_config, ner_tokenizer, rng=np.random.default_rng(4))
        parser = ResumeParser(classifier, tagger)
        path = str(tmp_path / "separate")
        save_parser(parser, path)
        restored = load_parser(path)
        block_tokenizer = restored.block_classifier.featurizer.tokenizer
        ner_restored = restored.ner_tagger.featurizer.tokenizer
        assert ner_restored is not block_tokenizer
        assert ner_restored.vocab.tokens() == ner_tokenizer.vocab.tokens()
        assert block_tokenizer.vocab.tokens() == (
            classifier.featurizer.tokenizer.vocab.tokens()
        )
        before = [r.to_dict() for r in parser.parse_batch(docs)]
        assert [r.to_dict() for r in restored.parse_batch(docs)] == before
