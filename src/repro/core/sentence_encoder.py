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
        """Encode a batch of sentences.

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
        embedded = self.text_embedding(token_ids, token_segments)
        embedded = embedded + self.layout_embedding(token_layout)
        states = self.encoder(embedded, attention_mask=token_mask)
        cls = states[:, 0, :]
        pooled = self.pooler(cls).tanh()
        return states, l2_normalize(pooled, axis=-1)

    def infer_buckets(self, buckets) -> np.ndarray:
        """Sentence vectors for several width buckets in one ragged pass.

        ``buckets`` is an iterable of ``(token_ids, token_mask,
        token_layout, token_segments)`` groups, each padded to its own
        width.  All per-token work — embeddings, QKV/FFN projections,
        layer norms, the pooler — runs on one concatenated ``(Σ n·t, d)``
        buffer; only the attention core runs per bucket (see
        :meth:`TransformerEncoder.infer_block`).  Returns the ``(Σ n, d)``
        L2-normalised sentence vectors in bucket order, bitwise identical
        at float64 to encoding each bucket separately.
        """
        dtype = self.encoder.inference_dtype
        ids_parts, seg_parts, lay_parts, pos_parts = [], [], [], []
        blocks, masks = [], []
        offset = 0
        for token_ids, token_mask, token_layout, token_segments in buckets:
            token_ids = np.asarray(token_ids, dtype=np.int64)
            rows, width = token_ids.shape
            ids_parts.append(token_ids.reshape(-1))
            seg_parts.append(np.asarray(token_segments, dtype=np.int64).reshape(-1))
            lay_parts.append(
                np.asarray(token_layout, dtype=np.int64).reshape(rows * width, -1)
            )
            pos_parts.append(
                np.broadcast_to(np.arange(width), (rows, width)).reshape(-1)
            )
            blocks.append((offset, rows, width))
            masks.append(token_mask)
            offset += rows * width
        flat = self.text_embedding.infer(
            np.concatenate(ids_parts),
            np.concatenate(seg_parts),
            dtype=dtype,
            positions=np.concatenate(pos_parts),
        )
        flat += self.layout_embedding.infer(
            np.concatenate(lay_parts, axis=0), dtype=dtype
        )
        states = self.encoder.infer_block(flat, blocks, masks)
        cls_rows = [
            states[offset : offset + rows * width : width]
            for offset, rows, width in blocks
        ]
        cls = cls_rows[0] if len(cls_rows) == 1 else np.concatenate(cls_rows, axis=0)
        pooled = np.tanh(self.pooler.infer(cls))
        norm = np.sqrt((pooled * pooled).sum(axis=-1, keepdims=True) + 1e-12)
        return pooled / norm
