"""Sentence-level Transformer encoder (Section IV-A1).

Encodes each sentence's WordPiece tokens with text + 2-D layout embeddings
(Eq. 1–2 summed), runs the Transformer stack, takes the ``[CLS]`` slot, and
applies the paper's extra dense layer with L2 normalisation to produce the
sentence representation ``h_j``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..nn import Linear, Module, Tensor, TransformerEncoder
from ..nn import init as nn_init
from ..nn.attention import RaggedLayout, ragged_layout
from ..nn.functional import l2_normalize
from .config import ResuFormerConfig
from .embeddings import LayoutEmbedding, TextEmbedding

__all__ = ["SentenceEncoder"]


class SentenceEncoder(Module):
    """Token sequences → contextual token states and sentence vectors."""

    def __init__(
        self, config: ResuFormerConfig, rng: Optional[np.random.Generator] = None
    ):
        super().__init__()
        config.validate()
        rng = rng or nn_init.default_rng()
        self.config = config
        self.text_embedding = TextEmbedding(
            config.vocab_size,
            config.hidden_dim,
            max_positions=config.max_sentence_tokens + 1,  # +1 for [CLS]
            num_segments=config.num_segments,
            rng=rng,
        )
        self.layout_embedding = LayoutEmbedding(
            config.hidden_dim, config.layout_buckets, rng=rng
        )
        self.encoder = TransformerEncoder(
            config.sentence_layers,
            config.hidden_dim,
            config.sentence_heads,
            ffn_dim=config.hidden_dim * config.ffn_multiplier,
            dropout=config.dropout,
            rng=rng,
        )
        self.pooler = Linear(config.hidden_dim, config.hidden_dim, rng=rng)

    def forward(
        self,
        token_ids: np.ndarray,
        token_mask: np.ndarray,
        token_layout: np.ndarray,
        token_segments: np.ndarray,
    ) -> Tuple[Tensor, Tensor]:
        """Encode a batch of sentences: one group of :meth:`forward_ragged`.

        Args:
            token_ids: ``(m, t)`` WordPiece ids with ``[CLS]`` first.
            token_mask: ``(m, t)`` validity mask.
            token_layout: ``(m, t, 7)`` bucketised layout tuples.
            token_segments: ``(m, t)`` segment symbols.

        Returns:
            ``(token_states, sentence_vectors)``: the contextual token
            representations ``(m, t, d)`` and the pooled, L2-normalised
            sentence vectors ``(m, d)``.
        """
        m, t = np.shape(token_mask)
        layout = ragged_layout([(np.arange(m), t)], np.asarray(token_mask))
        states, vectors = self.forward_ragged(
            token_ids, token_layout, token_segments, layout
        )
        return states.reshape(m, t, states.shape[-1]), vectors

    def forward_ragged(
        self,
        token_ids: np.ndarray,
        token_layout: np.ndarray,
        token_segments: np.ndarray,
        layout: RaggedLayout,
    ) -> Tuple[Tensor, Tensor]:
        """Encode a sentence block as one flat buffer of width groups.

        ``layout`` (:func:`~repro.nn.attention.ragged_layout`) places each
        sentence's slots in the buffer.  The embeddings, every per-row
        map and the pooler run once over it; only the attention core runs
        per group.  Returns the ``(Σ n·t, d)`` token states in buffer
        order and the ``(m, d)`` L2-normalised sentence vectors in row
        order.  Trailing padding is inert (masked keys get exactly zero
        attention weight and pooling reads the ``[CLS]`` slot).
        """
        rows, cols = layout.rows, layout.cols
        embedded = self.text_embedding(
            token_ids[rows, cols], token_segments[rows, cols], positions=cols
        ) + self.layout_embedding(token_layout[rows, cols])
        states = self.encoder(embedded, blocks=layout.blocks, masks=layout.masks)
        pooled = self.pooler(states[layout.row_base]).tanh()
        return states, l2_normalize(pooled, axis=-1)

    def infer_ragged(
        self,
        token_ids: np.ndarray,
        token_layout: np.ndarray,
        token_segments: np.ndarray,
        layout: RaggedLayout,
    ) -> np.ndarray:
        """Forward-only :meth:`forward_ragged` on raw arrays: the ``(m, d)``
        sentence vectors in row order, in the encoder's inference dtype.
        Each sentence's vector is the same whatever group it lands in."""
        dtype = self.encoder.inference_dtype
        rows, cols = layout.rows, layout.cols
        flat = self.text_embedding.infer(
            token_ids[rows, cols], token_segments[rows, cols],
            dtype=dtype, positions=cols,
        )
        flat += self.layout_embedding.infer(token_layout[rows, cols], dtype=dtype)
        states = self.encoder.infer_block(flat, layout.blocks, layout.masks)
        pooled = np.tanh(self.pooler.infer(states[layout.row_base]))
        norm = np.sqrt((pooled * pooled).sum(axis=-1, keepdims=True) + 1e-12)
        return pooled / norm
