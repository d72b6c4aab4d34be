"""Tests for the three pre-training objectives and the Pretrainer."""

import numpy as np
import pytest

from repro.core import (
    Pretrainer,
    PretrainObjectives,
    masked_copy,
)
from repro.nn import Tensor


@pytest.fixture()
def pretrainer(encoder, featurizer):
    return Pretrainer(encoder, featurizer, seed=0, learning_rate=1e-3)


@pytest.fixture()
def features(featurizer, tiny_docs):
    return [featurizer.featurize(d) for d in tiny_docs[:3]]


class TestMaskedCopy:
    def test_cls_never_masked(self):
        rng = np.random.default_rng(0)
        ids = np.arange(5, 55).reshape(5, 10)
        mask = np.ones_like(ids, dtype=float)
        corrupted, selected = masked_copy(ids, mask, 0.9, mask_id=4, vocab_size=60, rng=rng)
        assert not selected[:, 0].any()
        np.testing.assert_array_equal(corrupted[:, 0], ids[:, 0])

    def test_padding_never_masked(self):
        rng = np.random.default_rng(0)
        ids = np.ones((4, 8), dtype=int)
        mask = np.zeros_like(ids, dtype=float)
        _, selected = masked_copy(ids, mask, 0.9, mask_id=4, vocab_size=60, rng=rng)
        assert not selected.any()

    def test_mask_rate_roughly_respected(self):
        rng = np.random.default_rng(1)
        ids = np.ones((50, 40), dtype=int)
        mask = np.ones_like(ids, dtype=float)
        _, selected = masked_copy(ids, mask, 0.15, mask_id=4, vocab_size=60, rng=rng)
        rate = selected.mean()
        assert 0.10 < rate < 0.20

    def test_original_unchanged(self):
        rng = np.random.default_rng(2)
        ids = np.ones((4, 8), dtype=int) * 7
        mask = np.ones_like(ids, dtype=float)
        before = ids.copy()
        masked_copy(ids, mask, 0.5, mask_id=4, vocab_size=60, rng=rng)
        np.testing.assert_array_equal(ids, before)

    def test_corruption_mix(self):
        rng = np.random.default_rng(3)
        ids = np.full((80, 40), 9, dtype=int)
        mask = np.ones_like(ids, dtype=float)
        corrupted, selected = masked_copy(ids, mask, 0.5, mask_id=4, vocab_size=60, rng=rng)
        changed = corrupted[selected]
        # ~80% [MASK], ~10% random, ~10% unchanged.
        frac_mask = (changed == 4).mean()
        frac_keep = (changed == 9).mean()
        assert 0.7 < frac_mask < 0.9
        assert 0.03 < frac_keep < 0.2


class TestObjectives:
    def test_mllm_loss_positive(self, pretrainer, features):
        loss = pretrainer.mllm_loss(features[0])
        assert loss is not None
        assert float(loss.data) > 0

    def test_scl_pairs_shapes(self, pretrainer, features, config):
        predicted, targets, encoded = pretrainer.scl_pairs(features[0])
        assert predicted.shape == targets.shape
        assert predicted.shape[1] == config.document_dim
        k = predicted.shape[0]
        m = features[0].num_sentences
        assert 1 <= k <= max(int(round(0.2 * m)), 1)

    def test_info_nce_prefers_aligned(self):
        aligned = Tensor(np.eye(4) * 5)
        targets = Tensor(np.eye(4) * 5)
        loss_aligned = Pretrainer.info_nce(aligned, targets, temperature=1.0)
        shuffled = Tensor(np.roll(np.eye(4) * 5, 1, axis=0))
        loss_shuffled = Pretrainer.info_nce(shuffled, targets, temperature=1.0)
        assert float(loss_aligned.data) < float(loss_shuffled.data)

    def test_dnsp_loss_positive(self, pretrainer, features, encoder):
        encoded = encoder(features[0])
        loss = pretrainer.dnsp_loss(encoded.contextual)
        assert loss is not None
        assert float(loss.data) > 0

    def test_dnsp_skips_tiny_documents(self, pretrainer):
        short = Tensor(np.zeros((2, pretrainer.config.document_dim)))
        assert pretrainer.dnsp_loss(short) is None


class TestPretrainStep:
    def test_reports_all_losses(self, pretrainer, features):
        losses = pretrainer.pretrain_step(features)
        assert {"wp", "cl", "ns", "total"} <= set(losses)

    def test_updates_parameters(self, pretrainer, features, encoder):
        before = encoder.sentence_encoder.text_embedding.word.weight.data.copy()
        pretrainer.pretrain_step(features)
        after = encoder.sentence_encoder.text_embedding.word.weight.data
        assert not np.allclose(before, after)

    def test_objective_toggles(self, encoder, featurizer, features):
        pre = Pretrainer(
            encoder,
            featurizer,
            objectives=PretrainObjectives(wmp=False, scl=True, dnsp=False),
            seed=0,
        )
        losses = pre.pretrain_step(features)
        assert "wp" not in losses
        assert "ns" not in losses
        assert "cl" in losses

    def test_all_disabled_raises(self, encoder, featurizer, features):
        pre = Pretrainer(
            encoder,
            featurizer,
            objectives=PretrainObjectives(False, False, False),
            seed=0,
        )
        with pytest.raises(ValueError):
            pre.pretrain_step(features)

    def test_static_masking_reuses_slots(self, encoder, featurizer, tiny_docs):
        pre = Pretrainer(
            encoder, featurizer, seed=0, dynamic_sentence_masking=False
        )
        features = featurizer.featurize(tiny_docs[0])
        first = pre.scl_pairs(features)
        second = pre.scl_pairs(features)
        found, slots = pre._static_slots.get(features)
        assert found
        assert slots is not None
        np.testing.assert_array_equal(
            first[0].shape, second[0].shape
        )
        # Same slots selected both times (dynamic masking would resample).
        assert id(features) in pre._static_slots

    def test_dynamic_masking_resamples(self, encoder, featurizer, tiny_docs):
        pre = Pretrainer(encoder, featurizer, seed=0)
        features = featurizer.featurize(tiny_docs[0])
        seen = set()
        for _ in range(6):
            slots = pre._mask_slots(features.num_sentences, 0.2)
            seen.add(tuple(np.where(slots)[0]))
        assert len(seen) > 1

    def test_fit_reduces_loss(self, encoder, featurizer, tiny_docs):
        pre = Pretrainer(encoder, featurizer, seed=0, learning_rate=3e-3)
        history = pre.fit(tiny_docs[:4], epochs=4, batch_size=4)
        first = history[0]["total"]
        last = history[-1]["total"]
        assert last < first
