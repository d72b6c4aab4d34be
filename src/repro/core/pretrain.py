"""Self-supervised pre-training objectives (Section IV-A2).

Implements the three objectives and their combination (Eq. 7):

* **Masked layout-language model (MLLM)** — mask WordPiece tokens, keep
  their 2-D layout embeddings, predict the originals (``L_wp``).
* **Self-supervised contrastive learning (SCL)** — dynamically mask
  sentence slots in the document encoder and contrast the contextual
  prediction at each masked slot against the true fused sentence embedding
  across the batch (Eq. 3–4, ``L_cl``).
* **Dynamic next-sentence prediction (DNSP)** — sample sentence positions
  and score adjacency through a bilinear interaction matrix (Eq. 5–6,
  ``L_ns``).

All three run *batched*: the documents of a step are collated into one
padded :class:`~repro.core.batching.DocumentBatch`, MLLM corrupts the flat
cross-document sentence block in one shot and encodes it in one ragged
pass, and SCL/DNSP share a single batched document-encoder pass with
per-document slot masks.  The per-document methods (:meth:`Pretrainer.
mllm_loss`, :meth:`Pretrainer.scl_pairs`, :meth:`Pretrainer.dnsp_loss`)
remain as the reference implementations the parity tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..docmodel.document import ResumeDocument
from ..nn import AdamW, Linear, Module, Parameter, ParamGroup, Tensor
from ..nn import init as nn_init
from ..nn.functional import cross_entropy, log_softmax, masked_fill
from ..text.vocab import SPECIAL_TOKENS
from .batching import DocumentBatch, collate_documents
from .config import ResuFormerConfig
from .featurize import DocumentFeatures, Featurizer, IdentityCache
from .hierarchical import HierarchicalEncoder
from .training import GradAccumulator, iter_minibatches

__all__ = ["PretrainObjectives", "PretrainHeads", "Pretrainer", "masked_copy"]


@dataclass
class PretrainObjectives:
    """Toggles for the ablations of Table III."""

    wmp: bool = True   # masked layout-language model  (w/o WMP ablation)
    scl: bool = True   # contrastive sentence masking  (w/o SCL ablation)
    dnsp: bool = True  # dynamic next-sentence         (w/o DNSP ablation)

    def any(self) -> bool:
        return self.wmp or self.scl or self.dnsp


class PretrainHeads(Module):
    """Trainable heads owned by pre-training only."""

    def __init__(
        self, config: ResuFormerConfig, rng: Optional[np.random.Generator] = None
    ):
        super().__init__()
        rng = rng or nn_init.default_rng()
        self.mlm = Linear(config.hidden_dim, config.vocab_size, rng=rng)
        #: ``W_d`` of Eq. 5.
        self.dnsp_interaction = Parameter(
            nn_init.normal((config.document_dim, config.document_dim), rng, std=0.02)
        )


def masked_copy(
    token_ids: np.ndarray,
    token_mask: np.ndarray,
    mask_prob: float,
    mask_id: int,
    vocab_size: int,
    rng: np.random.Generator,
    random_floor: Optional[int] = None,
) -> tuple:
    """BERT-style corruption: returns ``(corrupted_ids, prediction_mask)``.

    Of the selected positions, 80% become ``[MASK]``, 10% a random id and
    10% stay unchanged.  The ``[CLS]`` column (position 0) is never masked.
    ``random_floor`` is the smallest id eligible as a random replacement —
    callers derive it from the vocabulary's special tokens (it defaults to
    ``mask_id + 1``, correct when the specials occupy the leading ids).
    """
    if random_floor is None:
        random_floor = mask_id + 1
    corrupted = token_ids.copy()
    selectable = (token_mask > 0).copy()
    selectable[:, 0] = False
    selected = selectable & (rng.random(token_ids.shape) < mask_prob)
    action = rng.random(token_ids.shape)
    use_mask = selected & (action < 0.8)
    use_random = selected & (action >= 0.8) & (action < 0.9)
    corrupted[use_mask] = mask_id
    if random_floor < vocab_size:
        corrupted[use_random] = rng.integers(
            random_floor, vocab_size, size=int(use_random.sum())
        )
    else:
        # Degenerate vocabulary of nothing but specials: fall back to [MASK].
        corrupted[use_random] = mask_id
    return corrupted, selected


class Pretrainer:
    """Drives Eq. 7 over an unlabeled document corpus."""

    def __init__(
        self,
        encoder: HierarchicalEncoder,
        featurizer: Featurizer,
        objectives: Optional[PretrainObjectives] = None,
        seed: int = 0,
        learning_rate: float = 5e-4,
        weight_decay: float = 0.01,
        max_grad_norm: float = 5.0,
        dynamic_sentence_masking: bool = True,
    ):
        self.encoder = encoder
        self.featurizer = featurizer
        self.config = encoder.config
        self.objectives = objectives or PretrainObjectives()
        self.rng = np.random.default_rng(seed)
        #: The paper argues *dynamic* masking (fresh slots each step) beats
        #: static masking; False freezes each document's masked slots for
        #: the ablation bench.
        self.dynamic_sentence_masking = dynamic_sentence_masking
        #: Frozen slots per feature bundle, dropped when the bundle dies.
        self._static_slots = IdentityCache(maxsize=1024)
        vocab = featurizer.tokenizer.vocab
        #: First id eligible as a random MLLM replacement — one past the
        #: highest special-token id, derived from the vocabulary itself.
        self._random_token_floor = (
            max(vocab.token_to_id(token) for token in SPECIAL_TOKENS) + 1
        )
        self.heads = PretrainHeads(self.config, rng=np.random.default_rng(seed + 1))
        params = encoder.parameters() + self.heads.parameters()
        self.optimizer = AdamW(
            [ParamGroup(params, learning_rate)], weight_decay=weight_decay
        )
        self.max_grad_norm = max_grad_norm
        #: Steps published to the telemetry run log (never reset).
        self._steps_emitted = 0

    # ------------------------------------------------------------------
    # Individual objectives — per-document reference implementations
    # ------------------------------------------------------------------
    def mllm_loss(
        self,
        features: DocumentFeatures,
        corruption: Optional[tuple] = None,
    ) -> Optional[Tensor]:
        """Objective #1: masked layout-language model (``L_wp``).

        ``corruption`` — an explicit ``(corrupted_ids, prediction_mask)``
        pair — bypasses the RNG draw (the parity tests feed both paths the
        same corruption).
        """
        vocab = self.featurizer.tokenizer.vocab
        if corruption is None:
            corruption = masked_copy(
                features.token_ids,
                features.token_mask,
                self.config.token_mask_prob,
                vocab.mask_id,
                len(vocab),
                self.rng,
                random_floor=self._random_token_floor,
            )
        corrupted, selected = corruption
        if not selected.any():
            return None
        token_states, _ = self.encoder.sentence_encoder(
            corrupted,
            features.token_mask,
            features.token_layout,  # layout survives masking, the point of MLLM
            features.token_segments,
        )
        logits = self.heads.mlm(token_states)
        return cross_entropy(logits, features.token_ids, mask=selected)

    def _mask_slots(self, m: int, ratio: float) -> Optional[np.ndarray]:
        count = max(int(round(ratio * m)), 1)
        if m < 2:
            return None
        count = min(count, m - 1)
        slots = np.zeros(m, dtype=bool)
        slots[self.rng.choice(m, size=count, replace=False)] = True
        return slots

    def _slots_for(self, features: DocumentFeatures) -> Optional[np.ndarray]:
        """Sentence-mask slots for one document (dynamic or static)."""
        if self.dynamic_sentence_masking:
            return self._mask_slots(
                features.num_sentences, self.config.sentence_mask_ratio
            )
        found, slots = self._static_slots.get(features)
        if not found:
            slots = self._mask_slots(
                features.num_sentences, self.config.sentence_mask_ratio
            )
            self._static_slots.store(features, slots)
        return slots

    def scl_pairs(
        self, features: DocumentFeatures, slots: Optional[np.ndarray] = None
    ):
        """Run one document with dynamic sentence masking.

        Returns ``(predicted_rows, target_rows)`` at the masked slots, or
        ``None`` when the document is too short to mask.  ``slots`` bypasses
        the sampling (parity tests).
        """
        if slots is None:
            slots = self._slots_for(features)
        if slots is None:
            return None
        encoded = self.encoder(features, sentence_mask_slots=slots)
        idx = np.where(slots)[0]
        return encoded.contextual[idx], encoded.fused[idx], encoded

    @staticmethod
    def info_nce(predicted: Tensor, targets: Tensor, temperature: float) -> Tensor:
        """Eq. 3–4: similarity matrix + softmax CE on the diagonal."""
        sim = predicted @ targets.transpose(1, 0)
        logp = log_softmax(sim / temperature, axis=-1)
        n = sim.shape[0]
        diagonal = logp[np.arange(n), np.arange(n)]
        return -diagonal.mean()

    def dnsp_loss(
        self, contextual: Tensor, anchors: Optional[np.ndarray] = None
    ) -> Optional[Tensor]:
        """Objective #3: dynamic next-sentence prediction (Eq. 5–6)."""
        m = contextual.shape[0]
        if m < 3:
            return None
        if anchors is None:
            count = max(int(round(self.config.next_sentence_ratio * m)), 1)
            count = min(count, m - 1)
            anchors = self.rng.choice(m - 1, size=count, replace=False)
        anchors = np.asarray(anchors, dtype=np.int64)
        count = anchors.shape[0]
        h_prime = contextual[anchors]
        h_next = contextual[anchors + 1]
        scores = h_prime @ self.heads.dnsp_interaction @ h_next.transpose(1, 0)
        logp = log_softmax(scores, axis=-1)
        diagonal = logp[np.arange(count), np.arange(count)]
        return -diagonal.mean()

    # ------------------------------------------------------------------
    # Batched objectives
    # ------------------------------------------------------------------
    def sample_sentence_slots(
        self, batch: DocumentBatch
    ) -> Optional[np.ndarray]:
        """Per-document mask slots padded to ``(B, m_max)`` (document order
        matches the per-document loop, so a fixed RNG draws the same slots)."""
        slots = np.zeros((batch.batch_size, batch.max_sentences), dtype=bool)
        any_masked = False
        for row, features in enumerate(batch.features):
            doc_slots = self._slots_for(features)
            if doc_slots is None:
                continue
            slots[row, : features.num_sentences] = doc_slots
            any_masked = True
        return slots if any_masked else None

    def sample_dnsp_anchors(
        self, lengths: Sequence[int]
    ) -> List[Optional[np.ndarray]]:
        """Per-document DNSP anchor positions (None for documents < 3
        sentences), drawn in document order like the per-document loop."""
        anchors: List[Optional[np.ndarray]] = []
        for m in lengths:
            m = int(m)
            if m < 3:
                anchors.append(None)
                continue
            count = max(int(round(self.config.next_sentence_ratio * m)), 1)
            count = min(count, m - 1)
            anchors.append(self.rng.choice(m - 1, size=count, replace=False))
        return anchors

    def mllm_loss_batch(
        self,
        batch: DocumentBatch,
        corruption: Optional[tuple] = None,
    ) -> Optional[Tensor]:
        """Batched ``L_wp`` over the collated flat sentence block.

        ``masked_copy`` corrupts every sentence of every document in one
        vectorised draw, and the sentence encoder runs one ragged pass
        over the corrupted block (:meth:`HierarchicalEncoder.
        sentence_layout`).  Only the token states of the selected
        positions are gathered and projected to the vocabulary, so
        ``heads.mlm`` and the log-softmax see ``selected.sum()`` rows, not
        every padded token slot.  Per-position weights reproduce the
        per-document mean exactly: each masked position of document ``d``
        carries ``1 / (count_d * D)`` where ``D`` counts documents with at
        least one masked token — so the result equals the mean of
        per-document :meth:`mllm_loss` terms for the same corruption.
        Under an active :mod:`repro.obs` session the ``pretrain.mllm``
        span carries ``mlm_rows`` (rows projected) and ``token_slots``
        (rows the ragged pass encoded).
        """
        vocab = self.featurizer.tokenizer.vocab
        if corruption is None:
            corruption = masked_copy(
                batch.token_ids,
                batch.token_mask,
                self.config.token_mask_prob,
                vocab.mask_id,
                len(vocab),
                self.rng,
                random_floor=self._random_token_floor,
            )
        corrupted, selected = corruption
        if not selected.any():
            return None

        # Each flat sentence row's document, and each document's count.
        doc = np.repeat(np.arange(batch.batch_size), batch.lengths)
        counts = np.bincount(doc, weights=selected.sum(axis=1), minlength=batch.batch_size)
        scale = (counts * np.count_nonzero(counts))[doc]
        weights = np.divide(selected, scale[:, None], out=np.zeros(selected.shape),
                            where=scale[:, None] > 0)

        with obs.trace("pretrain.mllm") as span:
            layout = self.encoder.sentence_layout(batch.token_mask)
            states, _ = self.encoder.sentence_encoder.forward_ragged(
                corrupted, batch.token_layout, batch.token_segments, layout
            )
            # Buffer rows of the masked positions (padding is never selected).
            picked = np.flatnonzero(selected[layout.rows, layout.cols])
            rows, cols = layout.rows[picked], layout.cols[picked]
            logp = log_softmax(self.heads.mlm(states[picked]), axis=-1)
            targets = logp[np.arange(picked.size), batch.token_ids[rows, cols]]
            if span is not None:
                span.set_attribute("mlm_rows", int(picked.size))
                span.set_attribute("token_slots", int(layout.rows.size))
            return -(targets * Tensor(weights[rows, cols])).sum()

    def dnsp_loss_batch(
        self,
        contextual: Tensor,
        lengths: Sequence[int],
        anchors: Optional[List[Optional[np.ndarray]]] = None,
    ) -> Optional[Tensor]:
        """Batched ``L_ns``: one bilinear score matrix over every anchor of
        every document, with cross-document pairs masked out so each row's
        softmax normalises within its own document (Eq. 5–6 semantics).

        Equals the mean of per-document :meth:`dnsp_loss` values for the
        same anchors: the masked positions underflow to exactly zero
        probability, leaving each document's within-block softmax intact.
        """
        if anchors is None:
            anchors = self.sample_dnsp_anchors(lengths)
        doc_parts: List[np.ndarray] = []
        pos_parts: List[np.ndarray] = []
        counts: List[int] = []
        for row, doc_anchors in enumerate(anchors):
            if doc_anchors is None or len(doc_anchors) == 0:
                continue
            doc_anchors = np.asarray(doc_anchors, dtype=np.int64)
            doc_parts.append(np.full(doc_anchors.shape[0], row, dtype=np.int64))
            pos_parts.append(doc_anchors)
            counts.append(doc_anchors.shape[0])
        if not counts:
            return None
        doc_idx = np.concatenate(doc_parts)
        positions = np.concatenate(pos_parts)
        h_prime = contextual[doc_idx, positions]
        h_next = contextual[doc_idx, positions + 1]
        scores = h_prime @ self.heads.dnsp_interaction @ h_next.transpose(1, 0)
        same_document = doc_idx[:, None] == doc_idx[None, :]
        scores = masked_fill(scores, ~same_document)
        logp = log_softmax(scores, axis=-1)
        k = doc_idx.shape[0]
        diagonal = logp[np.arange(k), np.arange(k)]
        weights = np.concatenate(
            [np.full(c, 1.0 / (c * len(counts))) for c in counts]
        )
        return -(diagonal * Tensor(weights)).sum()

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------
    def pretrain_losses(
        self,
        batch: Sequence[DocumentFeatures],
        collated: Optional[DocumentBatch] = None,
        slots: Optional[np.ndarray] = None,
        corruption: Optional[tuple] = None,
        anchors: Optional[List[Optional[np.ndarray]]] = None,
    ) -> Tuple[Dict[str, float], Optional[Tensor]]:
        """Batched forward over the active objectives.

        Returns ``(losses, total)`` where ``total`` is the Eq. 7 weighted
        sum (or None if nothing contributed).  The optional ``slots`` /
        ``corruption`` / ``anchors`` arguments inject explicit randomness
        for the parity tests; by default each is drawn from ``self.rng`` in
        document order.
        """
        if not self.objectives.any():
            raise ValueError("all pre-training objectives disabled")
        losses: Dict[str, float] = {}
        total: Optional[Tensor] = None

        def add(term: Optional[Tensor], weight: float, name: str):
            nonlocal total
            if term is None:
                return
            weighted = term * weight
            losses[name] = float(term.data)
            total = weighted if total is None else total + weighted

        doc_batch = collated if collated is not None else collate_documents(list(batch))

        # SCL and DNSP share one batched document-encoder pass over the
        # slot-masked inputs; SCL pools masked slots across the whole batch
        # (Eq. 4's N = b*k).
        if self.objectives.scl or self.objectives.dnsp:
            if slots is None:
                slots = self.sample_sentence_slots(doc_batch)
            if slots is not None and slots.any():
                encoded = self.encoder.encode_batch_pretrain(
                    doc_batch, mask_slots=slots
                )
                if self.objectives.scl:
                    rows, cols = np.nonzero(slots)
                    predicted = encoded.contextual[rows, cols]
                    targets = encoded.fused[rows, cols]
                    add(
                        self.info_nce(predicted, targets, self.config.temperature),
                        self.config.lambda_cl,
                        "cl",
                    )
                if self.objectives.dnsp:
                    # Only documents that were masked ran through the
                    # per-document loop, so only they contribute anchors.
                    lengths = np.where(slots.any(axis=1), doc_batch.lengths, 0)
                    add(
                        self.dnsp_loss_batch(
                            encoded.contextual, lengths, anchors=anchors
                        ),
                        self.config.lambda_ns,
                        "ns",
                    )

        if self.objectives.wmp:
            add(
                self.mllm_loss_batch(doc_batch, corruption=corruption),
                self.config.lambda_wp,
                "wp",
            )
        return losses, total

    def _lambda_weighted(self, losses: Dict[str, float]) -> Dict[str, float]:
        """Eq. 7's λ-weighted per-objective contributions."""
        weights = {
            "wp": self.config.lambda_wp,
            "cl": self.config.lambda_cl,
            "ns": self.config.lambda_ns,
        }
        return {
            name: value * weights[name]
            for name, value in losses.items()
            if name in weights
        }

    def _emit_step(
        self, telemetry, losses: Dict[str, float],
        documents: int, grad_norm: Optional[float] = None,
    ) -> None:
        """Publish one pre-training step: raw and λ-weighted loss series.

        An attached :class:`repro.obs.AlertEngine` derives the
        ``pretrain.losses.{wp,cl,ns,total}`` series from these events —
        the default ``nan-loss`` / ``loss-spike`` rules watch all of
        them, and ``scl-collapse`` / ``dnsp-collapse`` specifically watch
        the Eq. 7 contrastive and next-sentence objectives for degenerate
        solutions.
        """
        self._steps_emitted += 1
        for name, value in losses.items():
            # Objective names are the fixed {wp, cl, ns, total} loss-term
            # set, not per-item values — bounded cardinality.
            # repro-lint: disable=RN012
            telemetry.metrics.gauge("pretrain.loss").set(value, objective=name)
        telemetry.metrics.counter("pretrain.steps").inc()
        telemetry.metrics.counter("pretrain.documents").inc(documents)
        telemetry.event(
            "step",
            phase="pretrain",
            step=self._steps_emitted,
            losses=dict(losses),
            weighted_losses=self._lambda_weighted(losses),
            documents=documents,
            grad_norm=grad_norm,
        )

    def _local_step(
        self,
        engine: GradAccumulator,
        batch: Sequence[DocumentFeatures],
        weight: float,
    ) -> Tuple[Dict[str, float], Optional[float]]:
        """Forward the active objectives over ``batch`` and backpropagate
        the Eq. 7 total through ``engine``; returns ``(losses, grad_norm)``,
        the norm None when no optimizer step was taken."""
        with obs.trace("pretrain.step", documents=len(batch)):
            losses, total = self.pretrain_losses(batch)
            if total is None:
                return losses, None
            stepped = engine.backward(total, weight=weight)
            losses["total"] = float(total.data)
        return losses, engine.last_grad_norm if stepped else None

    def pretrain_step(
        self, batch: Sequence[DocumentFeatures]
    ) -> Dict[str, float]:
        """One optimiser step over a batch of documents; returns losses."""
        engine = GradAccumulator(
            self.optimizer,
            self.encoder.parameters() + self.heads.parameters(),
            max_grad_norm=self.max_grad_norm,
        )
        losses, grad_norm = self._local_step(engine, batch, weight=1.0)
        telemetry = obs.get_telemetry()
        if telemetry is not None and "total" in losses:
            self._emit_step(telemetry, losses, len(batch), grad_norm)
        return losses

    def fit(
        self,
        documents: Iterable[ResumeDocument],
        epochs: int = 1,
        batch_size: int = 4,
        grad_accumulation: int = 1,
    ) -> List[Dict[str, float]]:
        """Pre-train over a document corpus; returns per-step loss records.

        ``grad_accumulation`` accumulates that many mini-batches into each
        optimizer step (weighted by document count), raising the effective
        batch without growing the padded forward pass.  Note that SCL's
        cross-batch pooling still spans one mini-batch at a time.
        """
        documents = list(documents)
        cap = self.featurizer.config.max_document_sentences
        lengths = [min(d.num_sentences, cap) for d in documents]
        history: List[Dict[str, float]] = []
        telemetry = obs.get_telemetry()
        features = [self.featurizer.featurize(d) for d in documents]
        engine = GradAccumulator(
            self.optimizer,
            self.encoder.parameters() + self.heads.parameters(),
            max_grad_norm=self.max_grad_norm,
            accumulation=grad_accumulation,
        )
        for epoch_index in range(epochs):
            with obs.trace("pretrain.epoch", epoch=epoch_index):
                for chunk in iter_minibatches(
                    len(documents), batch_size, rng=self.rng, lengths=lengths
                ):
                    self.encoder.train()
                    losses, grad_norm = self._local_step(
                        engine, [features[i] for i in chunk], weight=len(chunk)
                    )
                    history.append(losses)
                    if telemetry is not None:
                        self._emit_step(telemetry, losses, len(chunk), grad_norm)
                engine.flush()
            if telemetry is not None:
                telemetry.event("epoch", phase="pretrain", epoch=epoch_index)
        return history
