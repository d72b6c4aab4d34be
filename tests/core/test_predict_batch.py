"""Batched inference: a document's labels never depend on its batch.

``predict`` is a batch of one, so there is no second implementation to
compare against; the contract is batch-composition invariance instead.  A
document's labels are identical alone, in any batch, in any order and at
any batch size.  The featurization cache must make repeated sweeps free.
"""

import numpy as np
import pytest

from repro.core import (
    BlockClassifier,
    BlockTrainer,
    Featurizer,
    LabeledDocument,
    collate_documents,
)
from repro.docmodel import BLOCK_SCHEME, ResumeDocument


@pytest.fixture()
def classifier(encoder, featurizer):
    return BlockClassifier(
        encoder, featurizer, lstm_hidden=16, rng=np.random.default_rng(9)
    )


class TestPredictBatch:
    def test_smoke_single_document_equals_predict(self, classifier, tiny_docs):
        # The tier-1 guard: predict stays a batch of one.
        doc = tiny_docs[0]
        assert classifier.predict_batch([doc]) == [classifier.predict(doc)]

    def test_ragged_batch_equals_per_document(self, classifier, tiny_docs):
        # Each document parsed alone vs. ragged chunks of a shared batch.
        expected = [classifier.predict(d) for d in tiny_docs]
        assert classifier.predict_batch(tiny_docs, batch_size=4) == expected

    def test_labels_invariant_to_batch_composition(self, classifier, tiny_docs):
        alone = [classifier.predict_batch([d])[0] for d in tiny_docs]
        assert classifier.predict_batch(tiny_docs[::-1])[::-1] == alone
        pairs = classifier.predict_batch([tiny_docs[5], tiny_docs[0]])
        assert pairs == [alone[5], alone[0]]
        assert all(len(a) == d.num_sentences for a, d in zip(alone, tiny_docs))

    def test_blank_document_gets_no_labels(self, classifier, tiny_docs):
        blank = ResumeDocument("blank", tiny_docs[0].pages, [])
        expected = classifier.predict_batch(tiny_docs[:2])
        assert classifier.predict_batch([blank]) == [[]]
        assert classifier.predict(blank) == []
        got = classifier.predict_batch([tiny_docs[0], blank, tiny_docs[1]])
        assert got == [expected[0], [], expected[1]]

    def test_batch_size_one_chunks_equal_full_batch(self, classifier, tiny_docs):
        docs = tiny_docs[:3]
        assert classifier.predict_batch(docs, batch_size=1) == (
            classifier.predict_batch(docs, batch_size=8)
        )

    def test_rejects_bad_batch_size(self, classifier, tiny_docs):
        with pytest.raises(ValueError):
            classifier.predict_batch(tiny_docs, batch_size=0)

    def test_predict_batch_runs_under_no_grad(
        self, classifier, tiny_docs, monkeypatch
    ):
        # Regression guard: every graph-building call inside predict_batch
        # must see gradients disabled, or serving leaks autograd history.
        from repro.nn.tensor import is_grad_enabled

        seen = []
        original = BlockClassifier.emissions_batch

        def spy(self, batch):
            seen.append(is_grad_enabled())
            return original(self, batch)

        monkeypatch.setattr(BlockClassifier, "emissions_batch", spy)
        classifier.predict_batch(tiny_docs[:2])
        assert seen and not any(seen)

    def test_emissions_batch_shape_and_equivalence(
        self, classifier, featurizer, tiny_docs
    ):
        docs = tiny_docs[:3]
        batch = collate_documents([featurizer.featurize(d) for d in docs])
        classifier.eval()
        from repro.nn import no_grad

        with no_grad():
            batched = classifier.emissions_batch(batch)
            assert batched.shape == (
                batch.batch_size,
                batch.max_sentences,
                BLOCK_SCHEME.num_labels,
            )
            for row, doc in enumerate(docs):
                single = classifier.emissions(featurizer.featurize(doc))
                m = batch.lengths[row]
                np.testing.assert_allclose(
                    batched.numpy()[row, :m], single.numpy()[0], atol=1e-10
                )


class TestCollate:
    def test_masks_and_gather(self, featurizer, tiny_docs):
        features = [featurizer.featurize(d) for d in tiny_docs[:3]]
        batch = collate_documents(features)
        assert batch.batch_size == 3
        assert batch.num_sentences == sum(f.num_sentences for f in features)
        np.testing.assert_array_equal(
            batch.sentence_mask.sum(axis=1), batch.lengths
        )
        # Gathered token rows must round-trip to each document's features.
        offset = 0
        for row, f in enumerate(features):
            m, t = f.num_sentences, f.max_tokens
            np.testing.assert_array_equal(
                batch.gather_index[row, :m], np.arange(offset, offset + m)
            )
            np.testing.assert_array_equal(
                batch.token_ids[offset : offset + m, :t], f.token_ids
            )
            offset += m

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            collate_documents([])


class TestFeatureCacheIntegration:
    def test_trainer_featurizes_each_document_once(self, tokenizer, config, tiny_docs):
        # Fresh featurizer so counters start at zero.
        from repro.core import HierarchicalEncoder

        featurizer = Featurizer(tokenizer, config)
        encoder = HierarchicalEncoder(config, rng=np.random.default_rng(3))
        model = BlockClassifier(
            encoder, featurizer, lstm_hidden=16, rng=np.random.default_rng(9)
        )
        train = [LabeledDocument.from_gold(d) for d in tiny_docs[:3]]
        validation = [LabeledDocument.from_gold(d) for d in tiny_docs[3:5]]
        trainer = BlockTrainer(model, seed=0)
        trainer.fit(train, validation=validation, epochs=2, patience=5)

        info = featurizer.cache.info()
        # Every document is computed exactly once, no matter how many
        # epochs re-visit it for training loss or validation accuracy.
        assert info["misses"] == len(train) + len(validation)
        assert info["hits"] > 0

    def test_repeated_predict_hits_cache(self, tokenizer, config, tiny_docs):
        from repro.core import HierarchicalEncoder

        featurizer = Featurizer(tokenizer, config)
        encoder = HierarchicalEncoder(config, rng=np.random.default_rng(3))
        model = BlockClassifier(
            encoder, featurizer, lstm_hidden=16, rng=np.random.default_rng(9)
        )
        doc = tiny_docs[0]
        first = model.predict(doc)
        assert featurizer.cache.misses == 1
        assert model.predict(doc) == first
        assert featurizer.cache.hits >= 1
        assert featurizer.cache.misses == 1

    def test_lru_eviction_and_identity_guard(self, tokenizer, config, tiny_docs):
        featurizer = Featurizer(tokenizer, config, cache_size=2)
        for doc in tiny_docs[:3]:
            featurizer.featurize(doc)
        assert len(featurizer.cache) == 2
        # The oldest entry was evicted; featurizing it again recomputes.
        misses = featurizer.cache.misses
        featurizer.featurize(tiny_docs[0])
        assert featurizer.cache.misses == misses + 1

    def test_cache_disabled(self, tokenizer, config, tiny_docs):
        featurizer = Featurizer(tokenizer, config, cache_size=0)
        assert featurizer.cache is None
        features = featurizer.featurize(tiny_docs[0])
        assert features.num_sentences > 0


class TestNerPredictBatch:
    def test_matches_predict(self, tokenizer):
        from repro.corpus.datasets import NerExample
        from repro.ner import NerConfig, NerTagger

        config = NerConfig(
            vocab_size=len(tokenizer.vocab),
            hidden_dim=16,
            layers=1,
            heads=2,
            lstm_hidden=8,
            dropout=0.0,
        )
        tagger = NerTagger(config, tokenizer, rng=np.random.default_rng(4))
        examples = [
            NerExample(words=["john", "doe"], labels=["B-NAME", "I-NAME"], block_tag="PI"),
            NerExample(
                words=["python", "and", "java"], labels=["B-SKILL", "O", "B-SKILL"], block_tag="SKILL"
            ),
            NerExample(words=["paris"], labels=["B-LOC"], block_tag="PI"),
        ]
        batched = tagger.predict_batch(examples, batch_size=2)
        assert len(batched) == len(examples)
        for got, example in zip(batched, examples):
            assert len(got) == len(example.words)
        # A chunk boundary must not change predictions.
        assert batched == tagger.predict_batch(examples, batch_size=3)


class TestNerPredictOrder:
    @pytest.mark.parametrize("precision", ["float64", "int8"])
    def test_input_order_survives_length_sort(self, tokenizer, precision):
        from repro.corpus.datasets import NerExample
        from repro.ner import NerConfig, NerTagger

        config = NerConfig(
            vocab_size=len(tokenizer.vocab), hidden_dim=16, layers=1, heads=2,
            lstm_hidden=8, dropout=0.0,
        )
        tagger = NerTagger(config, tokenizer, rng=np.random.default_rng(4))
        vocabulary = ["john", "doe", "python", "java", "paris", "engineer",
                      "2019", "university", "manager", "data"]
        rng = np.random.default_rng(11)
        lengths = rng.permutation([1, 2, 3, 5, 8, 13, 21, 34, 4, 9, 17, 6])
        examples = [
            NerExample(list(rng.choice(vocabulary, size=n)), ["O"] * n, "WorkExp")
            for n in lengths
        ]
        if precision == "int8":
            # Calibrate once, before any predict: the activation scales
            # are then fixed and labels cannot depend on the first call.
            tagger.quantize_for_inference(examples[:8])
        alone = [tagger.predict([e])[0] for e in examples]
        # Ragged width groups split each chunk differently from the
        # single-example calls, at both precisions.
        assert tagger.predict(examples) == alone
        # Chunks of 5 over the length-sorted order cut every block run apart.
        got = tagger.predict(examples, batch_size=5)
        assert [len(labels) for labels in got] == list(lengths)
        assert got == alone
        assert tagger.predict(examples[::-1])[::-1] == alone
