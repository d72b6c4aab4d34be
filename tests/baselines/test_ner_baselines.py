"""Tests for the intra-block NER baselines."""

import numpy as np
import pytest

from repro.baselines import (
    AutoNer,
    BertBiLstmCrf,
    BertBiLstmFuzzyCrf,
    DrMatch,
    NerBaselineTrainer,
)
from repro.corpus import NerExample, build_ner_corpus
from repro.docmodel import ENTITY_SCHEME
from repro.ner import (
    DistantAnnotator,
    NerConfig,
    annotate_examples,
    build_dictionaries,
)
from repro.text import WordPieceTokenizer

from ..helpers import padded_ner_word_states


@pytest.fixture(scope="module")
def setting():
    corpus = build_ner_corpus(
        num_train_docs=8, num_validation_docs=2, num_test_docs=3, seed=41
    )
    annotator = DistantAnnotator(build_dictionaries(coverage=0.6, seed=3, noise=0.3))
    train = annotate_examples(corpus.train, annotator)
    tokenizer = WordPieceTokenizer.train(
        [e.text for e in train], vocab_size=400, min_frequency=1
    )
    config = NerConfig(
        vocab_size=len(tokenizer.vocab),
        hidden_dim=32,
        layers=1,
        heads=2,
        lstm_hidden=16,
        dropout=0.0,
    )
    return corpus, train, annotator, tokenizer, config


class TestDrMatch:
    def test_predicts_labels(self, setting):
        corpus, _, annotator, *_ = setting
        model = DrMatch(annotator)
        predictions = model.predict(corpus.test[:3])
        for example, labels in zip(corpus.test[:3], predictions):
            assert len(labels) == len(example.words)

    def test_high_precision_profile(self, setting):
        from repro.eval import entity_prf

        corpus, _, annotator, *_ = setting
        model = DrMatch(annotator)
        predictions = model.predict(corpus.test)
        gold = [e.labels for e in corpus.test]
        score = entity_prf(gold, predictions)
        assert score.precision >= score.recall


class TestBertBiLstmCrf:
    def test_loss_and_predict(self, setting):
        corpus, train, _, tokenizer, config = setting
        model = BertBiLstmCrf(config, tokenizer, rng=np.random.default_rng(0))
        features = model.featurizer.featurize(train[:4])
        loss = model.loss(features)
        assert float(loss.data) > 0
        predictions = model.predict(corpus.test[:2])
        assert all(
            len(p) == len(e.words) for p, e in zip(predictions, corpus.test[:2])
        )

    def test_emissions_match_padded_oracle(self, setting):
        # The ragged encoder pass against the whole batch padded to its
        # widest row, under the same BiLSTM and emitter, grads on.
        _, train, _, tokenizer, config = setting
        model = BertBiLstmCrf(config, tokenizer, rng=np.random.default_rng(0))
        features = model.featurizer.featurize(train[:8])
        assert features.piece_mask.sum(axis=1).min() < features.piece_ids.shape[1]
        emissions = model.emissions(features)
        oracle = model.emitter(
            model.bilstm(padded_ner_word_states(model.encoder, features))
        )
        assert emissions.requires_grad
        assert np.abs(emissions.data - oracle.data).max() <= 1e-12

    def test_training_reduces_loss(self, setting):
        _, train, _, tokenizer, config = setting
        model = BertBiLstmCrf(config, tokenizer, rng=np.random.default_rng(1))
        trainer = NerBaselineTrainer(model, learning_rate=3e-3, seed=0)
        losses = trainer.fit(train[:12], epochs=3)
        assert losses[-1] < losses[0]


class TestBertBiLstmFuzzyCrf:
    def test_allowed_matrix_structure(self, setting):
        _, train, annotator, tokenizer, config = setting
        model = BertBiLstmFuzzyCrf(config, tokenizer, rng=np.random.default_rng(2))
        allowed = model.allowed_matrix(train[:3], annotator)
        assert allowed.shape[2] == ENTITY_SCHEME.num_labels
        # Matched positions are constrained to exactly one tag.
        example = train[0]
        annotation = annotator.annotate(example.words)
        for pos, is_matched in enumerate(annotation.matched[: allowed.shape[1]]):
            if is_matched:
                assert allowed[0, pos].sum() == 1
            else:
                assert allowed[0, pos].all()

    def test_training_reduces_loss(self, setting):
        _, train, annotator, tokenizer, config = setting
        model = BertBiLstmFuzzyCrf(config, tokenizer, rng=np.random.default_rng(3))
        trainer = NerBaselineTrainer(
            model, annotator=annotator, learning_rate=3e-3, seed=0
        )
        losses = trainer.fit(train[:12], epochs=3)
        assert losses[-1] < losses[0]

    def test_confident_o_words(self, setting):
        _, train, annotator, *_ = setting
        confident = BertBiLstmFuzzyCrf.build_confident_o(train, annotator)
        # Frequent plain words are confidently O; matched entity words never.
        assert "the" in confident or "and" in confident
        for example in train[:5]:
            annotation = annotator.annotate(example.words)
            for word, is_matched in zip(example.words, annotation.matched):
                if is_matched:
                    assert word.lower() not in confident

    def test_confident_o_constrains_allowed_matrix(self, setting):
        _, train, annotator, tokenizer, config = setting
        model = BertBiLstmFuzzyCrf(config, tokenizer, rng=np.random.default_rng(9))
        confident = BertBiLstmFuzzyCrf.build_confident_o(train, annotator)
        allowed = model.allowed_matrix(train[:2], annotator, confident_o=confident)
        example = train[0]
        annotation = annotator.annotate(example.words)
        for pos, word in enumerate(example.words[: allowed.shape[1]]):
            if not annotation.matched[pos] and word.lower() in confident:
                assert allowed[0, pos].sum() == 1
                assert allowed[0, pos, ENTITY_SCHEME.outside_id]

    def test_fuzzy_requires_annotator(self, setting):
        _, train, _, tokenizer, config = setting
        model = BertBiLstmFuzzyCrf(config, tokenizer, rng=np.random.default_rng(4))
        trainer = NerBaselineTrainer(model, annotator=None, seed=0)
        with pytest.raises(ValueError):
            trainer.fit(train[:4], epochs=1)


class TestAutoNer:
    def test_supervision_marks_unknown_boundaries(self, setting):
        _, train, annotator, tokenizer, config = setting
        model = AutoNer(config, tokenizer, rng=np.random.default_rng(5))
        example = NerExample(
            ["james", "smith", "mystery", "thing", "2019.07"],
            ["O"] * 5,
            "PInfo",
        )
        features, boundary, b_mask, types, t_mask = model.supervision(
            [example], annotator
        )
        annotation = annotator.annotate(example.words)
        # Boundary between two unmatched words carries no supervision.
        for pos in range(4):
            if not annotation.matched[pos] and not annotation.matched[pos + 1]:
                assert b_mask[0, pos] == 0.0

    def test_tie_inside_entity(self, setting):
        _, _, annotator, tokenizer, config = setting
        model = AutoNer(config, tokenizer, rng=np.random.default_rng(6))
        example = NerExample(
            ["2019.07", "-", "2021.06"], ["O"] * 3, "WorkExp"
        )
        _, boundary, b_mask, *_ = model.supervision([example], annotator)
        assert b_mask[0, 0] == 1.0
        assert boundary[0, 0] == AutoNer.TIE

    def test_predict_interfaces(self, setting):
        corpus, _, _, tokenizer, config = setting
        model = AutoNer(config, tokenizer, rng=np.random.default_rng(7))
        predictions = model.predict(corpus.test[:2])
        for example, labels in zip(corpus.test[:2], predictions):
            assert len(labels) == len(example.words)
            assert all(l == "O" or l[:2] in ("B-", "I-") for l in labels)

    def test_training_reduces_loss(self, setting):
        _, train, annotator, tokenizer, config = setting
        model = AutoNer(config, tokenizer, rng=np.random.default_rng(8))
        trainer = NerBaselineTrainer(
            model, annotator=annotator, learning_rate=3e-3, seed=0
        )
        losses = trainer.fit(train[:12], epochs=3)
        assert losses[-1] < losses[0]
