"""Tests for NER featurisation and the tagger model."""

import numpy as np
import pytest

from repro.corpus import NerExample, build_ner_corpus
from repro.docmodel import ENTITY_SCHEME
from repro.ner import NerConfig, NerFeaturizer, NerTagger
from repro.nn import no_grad
from repro.text import WordPieceTokenizer


@pytest.fixture(scope="module")
def corpus():
    return build_ner_corpus(
        num_train_docs=6, num_validation_docs=2, num_test_docs=2, seed=3
    )


@pytest.fixture(scope="module")
def tokenizer(corpus):
    return WordPieceTokenizer.train(
        [e.text for e in corpus.train], vocab_size=400, min_frequency=1
    )


@pytest.fixture(scope="module")
def config(tokenizer):
    return NerConfig(
        vocab_size=len(tokenizer.vocab),
        hidden_dim=32,
        layers=1,
        heads=2,
        lstm_hidden=16,
        dropout=0.0,
    )


@pytest.fixture()
def tagger(config, tokenizer):
    return NerTagger(config, tokenizer, rng=np.random.default_rng(1))


class TestNerFeaturizer:
    def test_shapes(self, tokenizer, corpus):
        featurizer = NerFeaturizer(tokenizer, max_words=40, max_pieces=80)
        features = featurizer.featurize(corpus.train[:3])
        # Padding is dynamic: width tracks the batch, capped by the config.
        assert features.piece_ids.shape[0] == 3
        assert features.piece_ids.shape[1] <= 80
        assert features.first_piece.shape[1] <= 40
        assert features.batch_size == 3
        assert features.max_words == features.first_piece.shape[1]
        longest = int(features.piece_mask.sum(axis=1).max())
        assert features.piece_ids.shape[1] == longest

    def test_cls_at_zero(self, tokenizer, corpus):
        featurizer = NerFeaturizer(tokenizer)
        features = featurizer.featurize(corpus.train[:2])
        assert np.all(features.piece_ids[:, 0] == tokenizer.vocab.cls_id)

    def test_first_piece_points_at_word_starts(self, tokenizer):
        featurizer = NerFeaturizer(tokenizer)
        example = NerExample(["alpha", "beta"], ["O", "B-Name"], "PInfo")
        features = featurizer.featurize([example])
        first = features.first_piece[0]
        assert first[0] == 1  # right after [CLS]
        assert first[1] > first[0]
        assert features.word_mask[0, :2].sum() == 2

    def test_label_ids_follow_scheme(self, tokenizer):
        featurizer = NerFeaturizer(tokenizer)
        example = NerExample(["x", "y"], ["B-Email", "I-Email"], "PInfo")
        features = featurizer.featurize([example])
        assert features.label_ids[0, 0] == ENTITY_SCHEME.begin_id("Email")
        assert features.label_ids[0, 1] == ENTITY_SCHEME.inside_id("Email")

    def test_truncation_respects_piece_budget(self, tokenizer):
        featurizer = NerFeaturizer(tokenizer, max_words=50, max_pieces=10)
        example = NerExample(
            ["word"] * 30, ["O"] * 30, "WorkExp"
        )
        features = featurizer.featurize([example])
        assert features.piece_mask[0].sum() <= 10
        assert features.word_mask[0].sum() < 30

    def test_empty_batch_rejected(self, tokenizer):
        with pytest.raises(ValueError):
            NerFeaturizer(tokenizer).featurize([])

    def test_piece_shape_features(self, tokenizer):
        from repro.ner.encoding import SHAPE_DIM

        featurizer = NerFeaturizer(tokenizer)
        example = NerExample(
            ["2024.01", "alice", "a@b.com"], ["B-Date", "O", "B-Email"], "PInfo"
        )
        features = featurizer.featurize([example])
        assert features.piece_shape.shape == (
            1, features.piece_ids.shape[1], SHAPE_DIM,
        )
        # [CLS] slot carries a zero shape vector.
        assert features.piece_shape[0, 0].sum() == 0
        # The date's first piece: contains digits, no '@'.
        date_piece = features.first_piece[0, 0]
        assert features.piece_shape[0, date_piece, 0] == 1.0  # has digit
        assert features.piece_shape[0, date_piece, 3] == 0.0  # no @
        # The email's first piece: has '@' somewhere in its word.
        email_piece = features.first_piece[0, 2]
        assert features.piece_shape[0, email_piece, 3] == 1.0

    def test_word_shape_values(self):
        from repro.ner.encoding import word_shape

        shape = word_shape("555-1234", position=2, total=4, is_initial=True)
        assert shape[0] == 1.0          # contains digit
        assert shape[1] == 0.0          # not all digits (dash)
        assert 0.8 < shape[2] < 1.0     # digit fraction
        assert shape[4] == 1.0          # punctuation
        assert shape[7] == 0.5          # relative position

    def test_shape_memo_stays_within_cap(self, tokenizer, corpus, monkeypatch):
        from repro.ner import encoding

        reference = NerFeaturizer(tokenizer).featurize(corpus.train[:4])
        monkeypatch.setattr(encoding, "SHAPE_MEMO_CAP", 5)
        featurizer = NerFeaturizer(tokenizer)
        for example in corpus.train[:4]:
            featurizer.featurize([example])
            assert len(featurizer._word_shapes) <= 5
        features = featurizer.featurize(corpus.train[:4])
        assert len(featurizer._word_shapes) <= 5
        np.testing.assert_array_equal(features.piece_shape, reference.piece_shape)

    def test_batches_cover_everything(self, tokenizer, corpus):
        featurizer = NerFeaturizer(tokenizer)
        seen = 0
        for features, chunk in featurizer.batches(corpus.train, batch_size=4):
            assert features.batch_size == len(chunk)
            seen += len(chunk)
        assert seen == len(corpus.train)


class TestNerTagger:
    def test_logits_shape(self, tagger, corpus):
        features = tagger.featurizer.featurize(corpus.train[:2])
        logits = tagger.logits(features)
        assert logits.shape == (2, features.max_words, ENTITY_SCHEME.num_labels)

    def test_loss_positive_and_differentiable(self, tagger, corpus):
        features = tagger.featurizer.featurize(corpus.train[:2])
        loss = tagger.loss(features)
        assert float(loss.data) > 0
        loss.backward()
        assert tagger.mlp.layers[0].weight.grad is not None
        assert tagger.encoder.embedding.word.weight.grad is not None

    def test_predict_alignment(self, tagger, corpus):
        predictions = tagger.predict(corpus.test[:3])
        for example, labels in zip(corpus.test[:3], predictions):
            assert len(labels) == len(example.words)
            assert all(l in ENTITY_SCHEME.labels for l in labels)

    def test_predict_batch_runs_under_no_grad(self, tagger, corpus, monkeypatch):
        # Regression guard: batched decoding must never record graphs.
        from repro.nn.tensor import is_grad_enabled

        seen = []
        original = NerTagger.logits

        def spy(self, features):
            seen.append(is_grad_enabled())
            return original(self, features)

        monkeypatch.setattr(NerTagger, "logits", spy)
        tagger.predict_batch(corpus.test[:3], batch_size=2)
        assert seen and not any(seen)

    def test_predict_probs_normalised(self, tagger, corpus):
        probs = tagger.predict_probs(corpus.test[:2])
        sums = probs.sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_clone_identical_but_independent(self, tagger):
        twin = tagger.clone()
        for (name_a, a), (name_b, b) in zip(
            sorted(tagger.named_parameters()), sorted(twin.named_parameters())
        ):
            assert name_a == name_b
            np.testing.assert_allclose(a.data, b.data)
        with no_grad():
            twin.mlp.layers[0].weight.data += 1.0
        assert not np.allclose(
            tagger.mlp.layers[0].weight.data, twin.mlp.layers[0].weight.data
        )

    def test_invalid_config(self, tokenizer):
        with pytest.raises(ValueError):
            NerConfig(vocab_size=10, hidden_dim=30, heads=4)

    def test_can_overfit_tiny_set(self, config, tokenizer):
        from repro.nn import AdamW, ParamGroup

        examples = [
            NerExample(
                "james smith studied at northfield university".split(),
                ["B-Name", "I-Name", "O", "O", "B-College", "I-College"],
                "EduExp",
            ),
            NerExample(
                "worked at acme inc since 2019.07".split(),
                ["O", "O", "B-Company", "I-Company", "O", "B-Date"],
                "WorkExp",
            ),
        ]
        tagger = NerTagger(config, tokenizer, rng=np.random.default_rng(5))
        optimizer = AdamW([ParamGroup(tagger.parameters(), 3e-3)])
        features = tagger.featurizer.featurize(examples)
        for _ in range(60):
            optimizer.zero_grad()
            loss = tagger.loss(features)
            loss.backward()
            optimizer.step()
        predictions = tagger.predict(examples)
        assert predictions[0][:2] == ["B-Name", "I-Name"]
        assert predictions[1][5] == "B-Date"


class TestLossBatch:
    def test_equals_mean_of_per_example_losses(self, tagger, corpus):
        examples = corpus.train[:4]
        tagger.eval()  # dropout off so both paths see identical activations
        batched = float(tagger.loss_batch(tagger.featurizer.featurize(examples)).data)
        singles = [
            float(tagger.loss(tagger.featurizer.featurize([e])).data)
            for e in examples
        ]
        assert batched == pytest.approx(np.mean(singles), abs=1e-6)

    def test_differs_from_token_mean_on_ragged_batch(self, tagger, corpus):
        # Ragged batches are exactly where example-mean and token-mean
        # weighting disagree; equality would mean loss_batch is miswired.
        examples = sorted(corpus.train[:6], key=lambda e: len(e.words))
        ragged = [examples[0], examples[-1]]
        if len(examples[0].words) == len(examples[-1].words):
            pytest.skip("corpus produced uniform lengths")
        tagger.eval()
        features = tagger.featurizer.featurize(ragged)
        assert float(tagger.loss_batch(features).data) != pytest.approx(
            float(tagger.loss(features).data), abs=1e-12
        )


def _mixed_examples(lengths, seed=0):
    """Blocks of the given word counts drawn from a small vocabulary."""
    vocabulary = ["james", "smith", "python", "2019.07", "acme", "inc",
                  "northfield", "university", "a@b.com", "engineer"]
    rng = np.random.default_rng(seed)
    return [
        NerExample(list(rng.choice(vocabulary, size=n)), ["O"] * n, "WorkExp")
        for n in lengths
    ]


class TestRaggedServing:
    """``no_grad`` logits run the ragged encoder; grads-on the padded graph."""

    def test_serving_matches_padded_graph(self, tokenizer):
        config = NerConfig(
            vocab_size=len(tokenizer.vocab), hidden_dim=32, layers=2, heads=2,
            lstm_hidden=16, dropout=0.0, max_pieces=64, max_words=96,
        )
        tagger = NerTagger(config, tokenizer, rng=np.random.default_rng(2))
        examples = _mixed_examples([1, 2, 3, 5, 8, 13, 21, 34, 90, 4, 1])
        features = tagger.featurizer.featurize(examples)
        # The longest block is cut by the piece budget, not by max_words.
        assert features.piece_mask.sum(axis=1).max() == config.max_pieces
        assert features.word_mask[8].sum() < 90
        graph = tagger.logits(features)
        assert graph.requires_grad  # the padded graph path
        with no_grad():
            served = tagger.logits(features).numpy()
        assert graph.data.dtype == served.dtype == np.float64
        mask = features.word_mask.astype(bool)
        assert np.abs(graph.data - served).max() <= 1e-12
        np.testing.assert_array_equal(
            graph.data.argmax(axis=-1)[mask], served.argmax(axis=-1)[mask]
        )

    def test_encode_span_counts_ragged_piece_slots(self, tagger):
        from repro import obs

        examples = _mixed_examples([1, 90, 1, 90, 1, 1], seed=1)
        features = tagger.featurizer.featurize(examples)
        session = obs.Telemetry()
        with obs.use_telemetry(session):
            tagger.predict(examples)
        (encode,) = [s for s in session.tracer.finished() if s.name == "encode"]
        pieces = encode.attributes["pieces"]
        slots = encode.attributes["piece_slots"]
        assert pieces == int(features.piece_mask.sum())
        assert pieces <= slots < features.piece_mask.size

    def test_no_session_records_nothing(self, tagger, monkeypatch):
        from repro.ner.model import NerEncoder

        calls = []
        original = NerEncoder.piece_groups

        def spy(self, piece_mask):
            calls.append(piece_mask.shape)
            return original(self, piece_mask)

        monkeypatch.setattr(NerEncoder, "piece_groups", spy)
        tagger.predict(_mixed_examples([1, 90, 1, 5]))
        assert len(calls) == 1  # the encoder's own grouping, nothing more
