"""Batched training must never drift from per-document training.

The contract of the mini-batch engine: every batched loss kernel returns
the *mean of the per-document losses*, so one batched optimizer step on B
documents sees the averaged per-document gradients.  These tests pin that
parity — for the block classifier's CRF loss and gradients, and for all
three pre-training objectives under shared (injected) randomness — plus
the engine mechanics (gradient accumulation, weighted windows) and the
static-slot cache's weakref guard.
"""

import dataclasses
import gc

import numpy as np
import pytest

from repro.core import (
    BlockClassifier,
    BlockTrainer,
    Featurizer,
    GradAccumulator,
    LabeledDocument,
    Pretrainer,
    collate_documents,
    collate_labels,
    iter_minibatches,
    masked_copy,
)
from repro.core.embeddings import LayoutEmbedding, TextEmbedding
from repro.nn import AdamW, ParamGroup, Tensor, concat

from ..helpers import (
    per_bucket_sentence_pass,
    primitive_layout_embedding,
    primitive_text_embedding,
)


@pytest.fixture()
def classifier(encoder, featurizer):
    return BlockClassifier(
        encoder, featurizer, lstm_hidden=16, rng=np.random.default_rng(9)
    )


@pytest.fixture()
def pretrainer(encoder, featurizer):
    return Pretrainer(encoder, featurizer, seed=0)


@pytest.fixture()
def doc_features(featurizer, tiny_docs):
    return [featurizer.featurize(d) for d in tiny_docs[:3]]


@pytest.fixture()
def labeled(tiny_docs):
    return [LabeledDocument.from_gold(d) for d in tiny_docs[:3]]


class TestCollateLabels:
    def test_pads_and_aligns(self, doc_features, labeled):
        labels = collate_labels(doc_features, [item.labels for item in labeled])
        assert labels.shape == (3, max(f.num_sentences for f in doc_features))
        for row, (f, item) in enumerate(zip(doc_features, labeled)):
            m = f.num_sentences
            np.testing.assert_array_equal(labels[row, :m], item.labels[:m])
            assert (labels[row, m:] == 0).all()

    def test_too_few_labels_rejected(self, doc_features):
        with pytest.raises(ValueError):
            collate_labels(doc_features, [[0], [0], [0]])

    def test_misaligned_lengths_rejected(self, doc_features, labeled):
        with pytest.raises(ValueError):
            collate_labels(doc_features, [labeled[0].labels])


class TestBlockLossParity:
    def test_loss_batch_equals_mean_of_per_document(
        self, classifier, doc_features, labeled
    ):
        classifier.train()
        batch = collate_documents(doc_features)
        labels = collate_labels(doc_features, [item.labels for item in labeled])
        batched = float(classifier.loss_batch(batch, labels).data)
        singles = [
            float(classifier.loss(f, item.labels).data)
            for f, item in zip(doc_features, labeled)
        ]
        assert batched == pytest.approx(np.mean(singles), abs=1e-9)

    def test_batched_step_matches_averaged_per_document_gradients(
        self, classifier, doc_features, labeled
    ):
        classifier.train()
        parameters = classifier.parameters()

        batch = collate_documents(doc_features)
        labels = collate_labels(doc_features, [item.labels for item in labeled])
        for p in parameters:
            p.grad = None
        classifier.loss_batch(batch, labels).backward()
        batched_grads = [None if p.grad is None else p.grad.copy() for p in parameters]

        for p in parameters:
            p.grad = None
        scale = 1.0 / len(doc_features)
        for f, item in zip(doc_features, labeled):
            (classifier.loss(f, item.labels) * scale).backward()
        for p, batched in zip(parameters, batched_grads):
            reference = np.zeros_like(p.data) if p.grad is None else p.grad
            got = np.zeros_like(p.data) if batched is None else batched
            np.testing.assert_allclose(got, reference, atol=1e-8)

    def test_loss_graph_stays_small(self, classifier, featurizer, tiny_docs):
        """Pins the size of one batched loss graph.

        ``LayerNorm``, ``Linear``, ``gelu``, attention, both embeddings and
        the BiLSTM are one node each, and the sentence encoder is one
        ragged pass (118 nodes; 120 with one node per LSTM direction plus
        their concat).  Built from primitive ops with one pass per width
        group, the same 4-document graph has 660 reachable nodes.
        Backward cost is mostly per-node overhead, so a refactor back to
        primitive ops or per-group passes must fail here.
        """
        classifier.train()
        features = [featurizer.featurize(d) for d in tiny_docs[:4]]
        labels = collate_labels(
            features, [LabeledDocument.from_gold(d).labels for d in tiny_docs[:4]]
        )
        loss = classifier.loss_batch(collate_documents(features), labels)
        seen = {}
        stack = [loss]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen[id(node)] = node
                stack.extend(node._parents)
        assert len(seen) <= 118


def _loss_batch_gradients(classifier, featurizer, docs):
    classifier.train()
    features = [featurizer.featurize(d) for d in docs]
    labels = collate_labels(
        features, [LabeledDocument.from_gold(d).labels for d in docs]
    )
    parameters = classifier.parameters()
    for p in parameters:
        p.grad = None
    loss = classifier.loss_batch(collate_documents(features), labels)
    loss.backward()
    return float(loss.data), [None if p.grad is None else p.grad.copy() for p in parameters]


class TestOneNodeEmbeddings:
    def test_loss_batch_gradients_bitwise_equal_primitive_path(
        self, classifier, featurizer, tiny_docs, monkeypatch
    ):
        node_loss, node_grads = _loss_batch_gradients(
            classifier, featurizer, tiny_docs[:4]
        )
        monkeypatch.setattr(TextEmbedding, "forward", primitive_text_embedding)
        monkeypatch.setattr(LayoutEmbedding, "forward", primitive_layout_embedding)
        loss, grads = _loss_batch_gradients(classifier, featurizer, tiny_docs[:4])
        assert node_loss == loss
        for (name, _), got, expected in zip(
            classifier.named_parameters(), node_grads, grads
        ):
            assert (got is None) == (expected is None), name
            if got is not None:
                np.testing.assert_array_equal(got, expected, err_msg=name)


class TestRaggedSentencePass:
    def test_gradients_match_per_bucket_oracle(self, encoder, featurizer, tiny_docs):
        encoder.train()
        batch = collate_documents([featurizer.featurize(d) for d in tiny_docs])
        layout = encoder.sentence_layout(batch.token_mask)
        assert len(layout.blocks) >= 2
        rng = np.random.default_rng(4)
        dim = encoder.config.hidden_dim
        state_weights = Tensor(rng.normal(size=(layout.rows.size, dim)))
        vector_weights = Tensor(rng.normal(size=(batch.token_mask.shape[0], dim)))
        parameters = list(encoder.sentence_encoder.named_parameters())

        def gradients(states, vectors):
            for _, p in parameters:
                p.grad = None
            ((states * state_weights).sum() + (vectors * vector_weights).sum()).backward()
            return {name: p.grad.copy() for name, p in parameters}

        ragged = gradients(*encoder.sentence_encoder.forward_ragged(
            batch.token_ids, batch.token_layout, batch.token_segments, layout
        ))
        oracle = gradients(*per_bucket_sentence_pass(encoder, batch))
        names = {name for name, _ in parameters}
        assert any(name.startswith("text_embedding.") for name in names)
        assert any(name.startswith("layout_embedding.") for name in names)
        for name in names:
            np.testing.assert_allclose(
                ragged[name], oracle[name], rtol=0, atol=1e-10, err_msg=name
            )


class TestPretrainParity:
    def test_mllm_batched_equals_per_document(self, pretrainer, doc_features):
        batch = collate_documents(doc_features)
        vocab = pretrainer.featurizer.tokenizer.vocab
        rng = np.random.default_rng(7)
        corruption = masked_copy(
            batch.token_ids,
            batch.token_mask,
            pretrainer.config.token_mask_prob,
            vocab.mask_id,
            len(vocab),
            rng,
        )
        batched = pretrainer.mllm_loss_batch(batch, corruption=corruption)
        corrupted, selected = corruption
        singles = []
        offset = 0
        for f in doc_features:
            m, t = f.num_sentences, f.max_tokens
            term = pretrainer.mllm_loss(
                f,
                corruption=(
                    corrupted[offset : offset + m, :t],
                    selected[offset : offset + m, :t],
                ),
            )
            if term is not None:
                singles.append(float(term.data))
            offset += m
        assert float(batched.data) == pytest.approx(np.mean(singles), abs=1e-9)

    def test_mlm_head_sees_only_selected_rows(self, pretrainer, doc_features, monkeypatch):
        batch = collate_documents(doc_features)
        vocab = pretrainer.featurizer.tokenizer.vocab
        corruption = masked_copy(
            batch.token_ids, batch.token_mask, pretrainer.config.token_mask_prob,
            vocab.mask_id, len(vocab), np.random.default_rng(7),
        )
        head = pretrainer.heads.mlm
        seen = []

        def probe(x):
            seen.append(x.shape)
            return type(head).forward(head, x)

        monkeypatch.setattr(head, "forward", probe)
        pretrainer.mllm_loss_batch(batch, corruption=corruption)
        selected = int(corruption[1].sum())
        assert seen == [(selected, pretrainer.config.hidden_dim)]
        assert selected < batch.token_mask.sum()

    def test_mllm_span_counts_rows_under_a_session(self, pretrainer, doc_features):
        from repro import obs

        batch = collate_documents(doc_features)
        vocab = pretrainer.featurizer.tokenizer.vocab
        corruption = masked_copy(
            batch.token_ids, batch.token_mask, pretrainer.config.token_mask_prob,
            vocab.mask_id, len(vocab), np.random.default_rng(7),
        )
        session = obs.Telemetry()
        with obs.use_telemetry(session):
            pretrainer.mllm_loss_batch(batch, corruption=corruption)
        (span,) = [s for s in session.tracer.finished() if s.name == "pretrain.mllm"]
        layout = pretrainer.encoder.sentence_layout(batch.token_mask)
        assert span.attributes["mlm_rows"] == int(corruption[1].sum())
        assert span.attributes["token_slots"] == layout.rows.size
        assert batch.token_mask.sum() <= layout.rows.size < batch.token_mask.size

    def test_mllm_without_session_sets_no_attributes(
        self, pretrainer, doc_features, monkeypatch
    ):
        from repro.obs.tracing import Span

        calls = []
        monkeypatch.setattr(
            Span, "set_attribute", lambda self, key, value: calls.append(key)
        )
        pretrainer.mllm_loss_batch(collate_documents(doc_features))
        assert calls == []

    def test_scl_and_dnsp_batched_equal_per_document(
        self, pretrainer, doc_features
    ):
        config = pretrainer.config
        batch = collate_documents(doc_features)
        rng = np.random.default_rng(8)

        per_doc_slots = []
        slots = np.zeros((batch.batch_size, batch.max_sentences), dtype=bool)
        anchors = []
        for row, f in enumerate(doc_features):
            m = f.num_sentences
            count = min(max(int(round(config.sentence_mask_ratio * m)), 1), m - 1)
            doc_slots = np.zeros(m, dtype=bool)
            doc_slots[rng.choice(m, size=count, replace=False)] = True
            per_doc_slots.append(doc_slots)
            slots[row, :m] = doc_slots
            count = min(max(int(round(config.next_sentence_ratio * m)), 1), m - 1)
            anchors.append(rng.choice(m - 1, size=count, replace=False))

        encoded = pretrainer.encoder.encode_batch_pretrain(batch, mask_slots=slots)
        rows, cols = np.nonzero(slots)
        batched_cl = Pretrainer.info_nce(
            encoded.contextual[rows, cols],
            encoded.fused[rows, cols],
            config.temperature,
        )
        batched_ns = pretrainer.dnsp_loss_batch(
            encoded.contextual, batch.lengths, anchors=anchors
        )

        predicted, targets, ns_terms = [], [], []
        for f, doc_slots, doc_anchors in zip(doc_features, per_doc_slots, anchors):
            p, t, enc = pretrainer.scl_pairs(f, slots=doc_slots)
            predicted.append(p)
            targets.append(t)
            term = pretrainer.dnsp_loss(enc.contextual, anchors=doc_anchors)
            if term is not None:
                ns_terms.append(float(term.data))
        reference_cl = Pretrainer.info_nce(
            concat(predicted, axis=0), concat(targets, axis=0), config.temperature
        )

        assert float(batched_cl.data) == pytest.approx(
            float(reference_cl.data), abs=1e-9
        )
        assert float(batched_ns.data) == pytest.approx(np.mean(ns_terms), abs=1e-9)

    def test_pretrain_step_reports_batched_losses(self, pretrainer, doc_features):
        losses = pretrainer.pretrain_step(doc_features)
        assert {"wp", "cl", "ns", "total"} <= set(losses)
        assert all(np.isfinite(v) for v in losses.values())


class TestMaskedCopyFloor:
    def test_random_floor_respected(self):
        rng = np.random.default_rng(0)
        ids = np.full((200, 30), 50, dtype=int)
        mask = np.ones_like(ids, dtype=float)
        corrupted, selected = masked_copy(
            ids, mask, 0.9, mask_id=4, vocab_size=60, rng=rng, random_floor=40
        )
        randoms = corrupted[selected & (corrupted != 4) & (corrupted != 50)]
        assert randoms.size > 0
        assert randoms.min() >= 40

    def test_default_floor_is_first_non_special(self):
        # mask_id + 1 reproduces the historical behaviour (specials at 0-4).
        rng = np.random.default_rng(1)
        ids = np.full((200, 30), 50, dtype=int)
        mask = np.ones_like(ids, dtype=float)
        corrupted, selected = masked_copy(
            ids, mask, 0.9, mask_id=4, vocab_size=60, rng=rng
        )
        randoms = corrupted[selected & (corrupted != 4) & (corrupted != 50)]
        assert randoms.min() >= 5

    def test_pretrainer_derives_floor_from_vocab(self, pretrainer):
        vocab = pretrainer.featurizer.tokenizer.vocab
        from repro.text.vocab import SPECIAL_TOKENS

        expected = max(vocab.token_to_id(t) for t in SPECIAL_TOKENS) + 1
        assert pretrainer._random_token_floor == expected


class TestStaticSlotCache:
    def test_weakref_guard_never_aliases_recycled_ids(
        self, encoder, featurizer, tiny_docs
    ):
        pre = Pretrainer(encoder, featurizer, seed=0, dynamic_sentence_masking=False)
        features = featurizer.featurize(tiny_docs[0])
        pre.scl_pairs(features)
        key = id(features)
        assert key in pre._static_slots
        del features
        featurizer.cache.clear()
        gc.collect()
        # The entry for the dead object must not answer for a live lookup.
        assert key not in pre._static_slots

    def test_eviction_is_bounded(self, encoder, featurizer, tiny_docs):
        pre = Pretrainer(encoder, featurizer, seed=0, dynamic_sentence_masking=False)
        pre._static_slots.maxsize = 2
        kept = [featurizer.featurize(d) for d in tiny_docs[:3]]
        for f in kept:
            pre._slots_for(f)
        assert len(pre._static_slots) == 2
        assert id(kept[0]) not in pre._static_slots
        assert id(kept[2]) in pre._static_slots

    @pytest.fixture()
    def uncached(self, tokenizer, config):
        # Without a feature cache, a bundle lives only as long as the test
        # holds it.
        return Featurizer(tokenizer, config, cache_size=0)

    def test_entry_dies_with_its_features(self, encoder, uncached, tiny_docs):
        pre = Pretrainer(encoder, uncached, seed=0, dynamic_sentence_masking=False)
        kept = uncached.featurize(tiny_docs[0])
        pre._slots_for(kept)
        pre._slots_for(uncached.featurize(tiny_docs[1]))  # dies on return
        gc.collect()
        assert len(pre._static_slots) == 1
        assert pre._static_slots.expirations == 1
        assert id(kept) in pre._static_slots

    def test_recycled_id_keeps_the_live_entry(self, encoder, uncached, tiny_docs):
        pre = Pretrainer(encoder, uncached, seed=0, dynamic_sentence_masking=False)
        template = uncached.featurize(tiny_docs[0])
        dead = dataclasses.replace(template)
        key = id(dead)
        pre._slots_for(dead)
        stale_ref = pre._static_slots._entries[key][0]
        del dead  # queued, not yet purged
        candidates = []
        for _ in range(50):
            candidates.append(dataclasses.replace(template))
            if id(candidates[-1]) == key:
                break
        else:
            pytest.skip("allocator did not reuse the address")
        live = candidates[-1]
        assert pre._static_slots.get(live) == (False, None)
        pre._static_slots.store(live, "live")
        pre._static_slots._pending.append(stale_ref)  # a late notification
        assert len(pre._static_slots) == 1
        assert pre._static_slots.get(live) == (True, "live")

    def test_cycle_collected_inside_store(self, encoder, uncached, tiny_docs):
        class CollectOnRelease:
            # Evicted inside store: its finaliser runs a GC pass there,
            # which collects the cyclic bundle below mid-update.
            def __del__(self):
                gc.collect()

        pre = Pretrainer(encoder, uncached, seed=0, dynamic_sentence_masking=False)
        pre._static_slots.maxsize = 2
        holder, cyclic, newcomer = (uncached.featurize(d) for d in tiny_docs[:3])
        cyclic.loop = cyclic
        gc.disable()
        try:
            pre._static_slots.store(holder, CollectOnRelease())
            pre._static_slots.store(cyclic, None)
            del cyclic
            pre._static_slots.store(newcomer, None)
        finally:
            gc.enable()
        assert len(pre._static_slots) == 1
        assert pre._static_slots.evictions == 1
        assert pre._static_slots.expirations == 1
        assert pre._static_slots.get(newcomer) == (True, None)


class TestGradAccumulator:
    def _make(self, accumulation):
        param = Tensor(np.zeros(3), requires_grad=True)
        optimizer = AdamW([ParamGroup([param], 1e-2)], weight_decay=0.0)
        engine = GradAccumulator(
            optimizer, [param], max_grad_norm=None, accumulation=accumulation
        )
        return param, engine

    def test_steps_every_window(self):
        param, engine = self._make(accumulation=2)
        loss = (param * Tensor(np.ones(3))).sum()
        assert engine.backward(loss) is False
        assert engine.backward((param * Tensor(np.ones(3))).sum()) is True
        assert engine.steps == 1

    def test_weighted_mean_gradient(self):
        param, engine = self._make(accumulation=2)
        # Two micro-batches of 3 and 1 documents with mean-gradients 1 and 5:
        # the window gradient must be the document-weighted mean, 2.0.
        engine.backward((param * Tensor(np.full(3, 1.0))).sum(), weight=3)
        grads = []
        original_step = engine.optimizer.step

        def capture():
            grads.append(param.grad.copy())
            original_step()

        engine.optimizer.step = capture
        engine.backward((param * Tensor(np.full(3, 5.0))).sum(), weight=1)
        np.testing.assert_allclose(grads[0], np.full(3, 2.0))

    def test_flush_applies_partial_window(self):
        param, engine = self._make(accumulation=4)
        engine.backward((param * Tensor(np.ones(3))).sum())
        assert engine.steps == 0
        assert engine.flush() is True
        assert engine.steps == 1
        assert engine.flush() is False

    def test_rejects_bad_inputs(self):
        param, engine = self._make(accumulation=1)
        with pytest.raises(ValueError):
            GradAccumulator(engine.optimizer, [param], accumulation=0)
        with pytest.raises(ValueError):
            engine.backward((param * Tensor(np.ones(3))).sum(), weight=0.0)


class TestMinibatchFit:
    def test_iter_minibatches_covers_everything(self):
        chunks = list(iter_minibatches(7, 3))
        assert [len(c) for c in chunks] == [3, 3, 1]
        assert sorted(i for c in chunks for i in c) == list(range(7))
        with pytest.raises(ValueError):
            list(iter_minibatches(5, 0))

    def test_fit_with_grad_accumulation_trains(self, classifier, tiny_docs):
        labeled = [LabeledDocument.from_gold(d) for d in tiny_docs[:4]]
        trainer = BlockTrainer(classifier, seed=0)
        history = trainer.fit(
            labeled, epochs=2, batch_size=2, grad_accumulation=2
        )
        assert len(history["loss"]) == 2
        assert all(np.isfinite(v) for v in history["loss"])

    def test_fit_rejects_worker_count(self, classifier, tiny_docs):
        labeled = [LabeledDocument.from_gold(d) for d in tiny_docs[:2]]
        before = classifier.state_dict()
        with pytest.raises(ValueError, match="num_workers was removed"):
            BlockTrainer(classifier, seed=0).fit(labeled, num_workers=1)
        for name, value in classifier.state_dict().items():
            np.testing.assert_array_equal(value, before[name])
