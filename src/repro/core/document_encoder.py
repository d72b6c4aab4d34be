"""Document-level Transformer encoder (Section IV-A1).

Consumes the sentence vectors from :class:`~repro.core.sentence_encoder.
SentenceEncoder`, fuses each with its visual descriptor (``h* = [h ; v]``),
adds sentence-level 2-D layout, 1-D position and segment embeddings, and
contextualises the sequence with a Transformer stack.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..nn import Embedding, LayerNorm, Linear, Module, Parameter, Tensor
from ..nn import TransformerEncoder, concat, where
from ..nn import init as nn_init
from .config import ResuFormerConfig
from .embeddings import LayoutEmbedding

__all__ = ["DocumentEncoder"]


class DocumentEncoder(Module):
    """Sentence vectors (+ visual, layout) → contextual block states."""

    def __init__(
        self, config: ResuFormerConfig, rng: Optional[np.random.Generator] = None
    ):
        super().__init__()
        config.validate()
        rng = rng or nn_init.default_rng()
        self.config = config
        dim = config.document_dim
        self.visual_project = Linear(config.visual_dim, config.visual_proj_dim, rng=rng)
        self.layout_embedding = LayoutEmbedding(dim, config.layout_buckets, rng=rng)
        self.position = Embedding(config.max_document_sentences, dim, rng=rng)
        self.segment = Embedding(config.num_segments, dim, rng=rng)
        self.norm = LayerNorm(dim)
        self.encoder = TransformerEncoder(
            config.document_layers,
            dim,
            config.document_heads,
            ffn_dim=dim * config.ffn_multiplier,
            dropout=config.dropout,
            rng=rng,
        )
        #: The learned replacement vector ĥ for masked sentence slots
        #: (Objective #2, Section IV-A2).
        self.sentence_mask_vector = Parameter(
            nn_init.normal((dim,), rng, std=0.02)
        )

    # ------------------------------------------------------------------
    def fuse(self, sentence_vectors: Tensor, visual: np.ndarray) -> Tensor:
        """Two-modal sentence embeddings ``h* = [h ; proj(v)]``."""
        projected = self.visual_project(Tensor(np.asarray(visual, dtype=np.float64)))
        return concat([sentence_vectors, projected], axis=-1)

    def infer_batch(
        self,
        sentence_vectors: np.ndarray,
        visual: np.ndarray,
        sentence_layout: np.ndarray,
        positions: np.ndarray,
        segments: np.ndarray,
        sentence_mask: np.ndarray,
    ) -> np.ndarray:
        """Raw-array :meth:`forward_batch` without sentence masking.

        Same pipeline as the graph path (fuse → embedding sums → norm →
        encoder), matching it at float64 to one-ulp LayerNorm round-off;
        the pipeline
        dtype follows ``sentence_vectors`` so a single-precision or
        quantized serving stack never widens back to float64.
        """
        batch, m, _ = sentence_vectors.shape
        if m > self.config.max_document_sentences:
            raise ValueError(
                f"{m} sentences exceed limit {self.config.max_document_sentences}"
            )
        dtype = sentence_vectors.dtype
        projected = self.visual_project.infer(np.asarray(visual, dtype=dtype))
        embedded = np.concatenate([sentence_vectors, projected], axis=-1)
        embedded += self.layout_embedding.infer(sentence_layout, dtype=dtype)
        embedded += self.position.lookup(
            np.asarray(positions, dtype=np.int64), dtype=dtype
        )
        embedded += self.segment.lookup(
            np.asarray(segments, dtype=np.int64), dtype=dtype
        )
        embedded = self.norm.infer(embedded)
        return self.encoder.infer(embedded, attention_mask=sentence_mask)

    def forward_batch(
        self,
        sentence_vectors: Tensor,
        visual: np.ndarray,
        sentence_layout: np.ndarray,
        positions: np.ndarray,
        segments: np.ndarray,
        sentence_mask: np.ndarray,
        mask_slots: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, Tensor]:
        """Full pass over padded ``(B, m, …)`` inputs.

        ``sentence_mask`` (``(B, m)`` 0/1) marks valid sentence slots;
        padded slots are excluded from attention so each document's states
        match a solo pass at its true length.  ``mask_slots``, if given, is
        a boolean ``(B, m)`` array; True slots enter the Transformer as the
        learned mask vector (dynamic sentence masking of Objective #2)
        while the returned ``fused`` embeddings stay unmasked, the
        contrastive ground truth.

        Returns ``(contextual_states, fused_targets)``, both ``(B, m, D)``.
        """
        batch, m, _ = sentence_vectors.shape
        if m > self.config.max_document_sentences:
            raise ValueError(
                f"{m} sentences exceed limit {self.config.max_document_sentences}"
            )
        fused = self.fuse(sentence_vectors, visual)
        inputs = fused
        if mask_slots is not None:
            dim = self.config.document_dim
            broadcast = np.repeat(np.asarray(mask_slots, dtype=bool)[:, :, None], dim, axis=2)
            mask_matrix = self.sentence_mask_vector.reshape(1, 1, dim) + Tensor(
                np.zeros((batch, m, dim))
            )
            inputs = where(broadcast, mask_matrix, fused)
        embedded = (
            inputs
            + self.layout_embedding(sentence_layout)
            + self.position(np.asarray(positions, dtype=np.int64))
            + self.segment(np.asarray(segments, dtype=np.int64))
        )
        states = self.encoder(self.norm(embedded), attention_mask=sentence_mask)
        return states, fused

    def forward(
        self,
        sentence_vectors: Tensor,
        visual: np.ndarray,
        sentence_layout: np.ndarray,
        positions: np.ndarray,
        segments: np.ndarray,
        mask_slots: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, Tensor]:
        """One document, ``(m, …)`` inputs: a batch of one of
        :meth:`forward_batch`; returns ``(m, D)`` states and targets."""
        m, dim = sentence_vectors.shape[0], self.config.document_dim
        states, fused = self.forward_batch(
            sentence_vectors.reshape(1, m, -1),
            np.asarray(visual)[None],
            np.asarray(sentence_layout)[None],
            np.asarray(positions)[None],
            np.asarray(segments)[None],
            np.ones((1, m)),
            mask_slots=None if mask_slots is None else np.asarray(mask_slots)[None],
        )
        return states.reshape(m, dim), fused.reshape(m, dim)
