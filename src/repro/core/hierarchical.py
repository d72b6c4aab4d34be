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

from ..nn import Module, Tensor
from ..nn import init as nn_init
from ..nn.attention import RaggedLayout, ragged_layout, width_groups
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

    def sentence_layout(self, token_mask: np.ndarray) -> RaggedLayout:
        """The flat-buffer layout of a sentence block's width groups.

        Attention cost is quadratic in the padded token width, so rows are
        sorted by true token count and split into up to 16 groups of at
        least 20 rows, each trimmed to its own widest row.  Training and
        serving encode the same layout.
        """
        return ragged_layout(width_groups(token_mask.sum(axis=1), 20, 16), token_mask)

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
        vectors = self.sentence_encoder.infer_ragged(
            batch.token_ids, batch.token_layout, batch.token_segments,
            self.sentence_layout(batch.token_mask),
        )
        padded = vectors[batch.gather_index]
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
        block as one ragged pass (:meth:`sentence_layout`); the gather back
        to ``(B, m_max, d)`` is a fancy-index on the autograd tensor, so
        the path is differentiable end to end.
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
        encoder = self.sentence_encoder
        layout = self.sentence_layout(batch.token_mask)
        inputs = (batch.token_ids, batch.token_layout, batch.token_segments, layout)
        if not is_grad_enabled() and encoder.encoder._dropout_inactive():
            vectors = Tensor(encoder.infer_ragged(*inputs))
        else:
            _, vectors = encoder.forward_ragged(*inputs)
        padded = vectors[batch.gather_index]
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
