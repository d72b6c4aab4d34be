"""The hierarchical multi-modal encoder (Figure 2).

Chains the sentence-level and document-level encoders over a featurised
document, exposing everything downstream consumers need: contextual token
states (for the masked layout-language model), fused sentence embeddings
(contrastive targets), and contextual sentence states (for block
classification and the other pre-training objectives).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..nn import Module, Tensor, concat
from ..nn import init as nn_init
from ..nn.attention import width_groups
from ..nn.tensor import is_grad_enabled
from .batching import DocumentBatch
from .config import ResuFormerConfig
from .document_encoder import DocumentEncoder
from .featurize import DocumentFeatures
from .sentence_encoder import SentenceEncoder

__all__ = ["HierarchicalEncoder", "EncodedDocument", "EncodedBatch"]


@dataclass
class EncodedDocument:
    """All intermediate representations for one document."""

    token_states: Tensor       # (m, t, d)   contextual WordPiece states
    sentence_vectors: Tensor   # (m, d)      pooled sentence representations
    fused: Tensor              # (m, D)      two-modal sentence embeddings h*
    contextual: Tensor         # (m, D)      document-contextual states h'


@dataclass
class EncodedBatch:
    """Batched pre-training representations for a padded document batch."""

    fused: Tensor              # (B, m_max, D) unmasked two-modal embeddings
    contextual: Tensor         # (B, m_max, D) contextual states (slots masked)


class HierarchicalEncoder(Module):
    """Sentence encoder + document encoder, end to end."""

    def __init__(
        self, config: ResuFormerConfig, rng: Optional[np.random.Generator] = None
    ):
        super().__init__()
        config.validate()
        rng = rng or nn_init.default_rng()
        self.config = config
        self.sentence_encoder = SentenceEncoder(config, rng=rng)
        self.document_encoder = DocumentEncoder(config, rng=rng)

    def forward(
        self,
        features: DocumentFeatures,
        sentence_mask_slots: Optional[np.ndarray] = None,
    ) -> EncodedDocument:
        token_states, sentence_vectors = self.sentence_encoder(
            features.token_ids,
            features.token_mask,
            features.token_layout,
            features.token_segments,
        )
        contextual, fused = self.document_encoder(
            sentence_vectors,
            features.sentence_visual,
            features.sentence_layout,
            features.sentence_positions,
            features.sentence_segments,
            mask_slots=sentence_mask_slots,
        )
        return EncodedDocument(
            token_states=token_states,
            sentence_vectors=sentence_vectors,
            fused=fused,
            contextual=contextual,
        )

    def iter_sentence_buckets(
        self,
        token_ids: np.ndarray,
        token_mask: np.ndarray,
        token_layout: np.ndarray,
        token_segments: np.ndarray,
        rows_per_bucket: int = 20,
        max_buckets: int = 16,
    ):
        """Run the sentence encoder over a flat sentence block in buckets.

        Attention cost is quadratic in the padded token width, so encoding
        every sentence at the block-global maximum wastes most of the work
        on padding.  Rows are sorted by true token count and encoded in up
        to ``max_buckets`` groups trimmed to each group's own maximum width.
        Yields ``(rows, token_states, sentence_vectors)`` per bucket, where
        ``rows`` indexes the original block and the states are trimmed to
        the bucket width.  Trailing padding is inert (masked keys get
        exactly zero attention weight and pooling reads the ``[CLS]``
        slot), so results are identical to one untrimmed pass.
        """
        groups = width_groups(token_mask.sum(axis=1), rows_per_bucket, max_buckets)
        for bucket, t in groups:
            token_states, vectors = self.sentence_encoder(
                token_ids[bucket, :t],
                token_mask[bucket, :t],
                token_layout[bucket, :t],
                token_segments[bucket, :t],
            )
            yield bucket, token_states, vectors

    def _sentence_vectors_bucketed(
        self, batch: DocumentBatch, rows_per_bucket: int = 20, max_buckets: int = 16
    ) -> tuple:
        """Sentence vectors for the flat cross-document block.

        Returns ``(flat, inverse)`` where ``flat`` is the ``(n, d)`` tensor
        in *bucket* order and ``inverse[row]`` locates original block row
        ``row`` inside it.  Callers compose ``inverse`` into their own
        gather instead of materialising the reordered tensor — one fancy
        index (and one scatter on the way back) instead of two.
        """
        encoder = self.sentence_encoder
        groups = width_groups(
            batch.token_mask.sum(axis=1), rows_per_bucket, max_buckets
        )
        if not is_grad_enabled() and encoder.encoder._dropout_inactive():
            # Forward-only ragged pass: one per-token buffer for every
            # bucket, attention per bucket (results identical — see
            # SentenceEncoder.infer_buckets).
            flat = Tensor(self._infer_bucket_vectors(batch, groups))
        else:
            pieces = []
            for bucket, t in groups:
                _, vectors = encoder(
                    batch.token_ids[bucket, :t],
                    batch.token_mask[bucket, :t],
                    batch.token_layout[bucket, :t],
                    batch.token_segments[bucket, :t],
                )
                pieces.append(vectors)
            flat = pieces[0] if len(pieces) == 1 else concat(pieces, axis=0)
        order = np.concatenate([bucket for bucket, _ in groups])
        inverse = np.empty(len(order), dtype=np.int64)
        inverse[order] = np.arange(len(order))
        return flat, inverse

    def _infer_bucket_vectors(self, batch: DocumentBatch, groups) -> np.ndarray:
        """Raw ragged sentence-vector pass over precomputed width groups."""
        return self.sentence_encoder.infer_buckets(
            (
                batch.token_ids[bucket, :t],
                batch.token_mask[bucket, :t],
                batch.token_layout[bucket, :t],
                batch.token_segments[bucket, :t],
            )
            for bucket, t in groups
        )

    def _inference_ready(self) -> bool:
        """Whether both stacks can run the raw forward-only kernels."""
        stacks = (self.sentence_encoder.encoder, self.document_encoder.encoder)
        return all(s._dropout_inactive() for s in stacks)

    def infer_batch(self, batch: DocumentBatch) -> np.ndarray:
        """Raw-array contextual sentence states ``(B, m_max, D)``.

        The whole pipeline — ragged sentence encoding, the gather back to
        padded shape, and the document encoder — runs on plain ndarrays:
        no graph bookkeeping and no float64 round trip between the two
        stacks.  Callers guard on ``no_grad`` + :meth:`_inference_ready`;
        the float64 result matches :meth:`encode_batch` to GEMM
        round-off (a few ulp).
        """
        groups = width_groups(batch.token_mask.sum(axis=1), 20, 16)
        flat = self._infer_bucket_vectors(batch, groups)
        order = np.concatenate([bucket for bucket, _ in groups])
        inverse = np.empty(len(order), dtype=np.int64)
        inverse[order] = np.arange(len(order))
        padded = flat[inverse[batch.gather_index]]
        padded *= batch.sentence_mask[:, :, None].astype(padded.dtype)
        return self.document_encoder.infer_batch(
            padded,
            batch.sentence_visual,
            batch.sentence_layout,
            batch.sentence_positions,
            batch.sentence_segments,
            batch.sentence_mask,
        )

    def encode_batch(self, batch: DocumentBatch) -> Tensor:
        """Contextual sentence states ``(B, m_max, D)`` for a padded batch.

        The sentence encoder runs over the flat cross-document sentence
        block in length buckets; the gather back to ``(B, m_max, d)`` is a
        fancy-index on the autograd tensor, so the path is differentiable
        end to end.
        """
        return self._encode_batch(batch).contextual

    def encode_batch_pretrain(
        self, batch: DocumentBatch, mask_slots: Optional[np.ndarray] = None
    ) -> EncodedBatch:
        """Batched masked encoding for the SCL/DNSP objectives.

        ``mask_slots`` (boolean ``(B, m_max)``) marks the sentence slots the
        document encoder sees as the learned mask vector; the returned
        ``fused`` embeddings stay unmasked and serve as the contrastive
        targets, mirroring the per-document ``forward(...,
        sentence_mask_slots=...)`` path document for document.
        """
        return self._encode_batch(batch, mask_slots=mask_slots)

    def _encode_batch(
        self, batch: DocumentBatch, mask_slots: Optional[np.ndarray] = None
    ) -> EncodedBatch:
        flat, inverse = self._sentence_vectors_bucketed(batch)
        padded = flat[inverse[batch.gather_index]]
        padded = padded * Tensor(batch.sentence_mask[:, :, None])
        contextual, fused = self.document_encoder.forward_batch(
            padded,
            batch.sentence_visual,
            batch.sentence_layout,
            batch.sentence_positions,
            batch.sentence_segments,
            batch.sentence_mask,
            mask_slots=mask_slots,
        )
        return EncodedBatch(fused=fused, contextual=contextual)

    def summary(self) -> str:
        """Architecture overview string (the Figure-2 bench prints this)."""
        c = self.config
        lines = [
            "HierarchicalEncoder",
            f"  sentence encoder : {c.sentence_layers} layers x "
            f"{c.sentence_heads} heads, dim {c.hidden_dim}, "
            f"<= {c.max_sentence_tokens} tokens/sentence",
            "    inputs         : word + 1D-position + segment (Eq. 1)",
            "                     + 2D layout [page; x; y] (Eq. 2)",
            f"  document encoder : {c.document_layers} layers x "
            f"{c.document_heads} heads, dim {c.document_dim}, "
            f"<= {c.max_document_sentences} sentences/document",
            f"    inputs         : [h ; visual({c.visual_dim}->"
            f"{c.visual_proj_dim})] + sentence layout + 1D pos + segment",
            f"  parameters       : {self.num_parameters():,}",
        ]
        return "\n".join(lines)
