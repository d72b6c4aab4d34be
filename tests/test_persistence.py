"""Round-trip tests for model persistence."""

import numpy as np
import pytest

from repro.core import (
    BlockClassifier,
    Featurizer,
    HierarchicalEncoder,
    ResuFormerConfig,
)
from repro.corpus import ContentConfig, ResumeGenerator, build_ner_corpus
from repro.ner import NerConfig, NerTagger
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
