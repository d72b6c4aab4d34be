"""Model configuration for the hierarchical multi-modal encoder.

Defaults are a CPU-scale rendition of Section V-A2: the paper uses a 6-layer
sentence encoder and 4-layer document encoder at hidden size 768 with 12
heads; we keep every architectural mechanism but default to smaller
dimensions so pre-training and fine-tuning complete in seconds on a laptop.
All paper-scale values remain reachable through this config.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..corpus.render import VISUAL_DIM

__all__ = ["ResuFormerConfig", "check_inference_precision"]


def check_inference_precision(precision: str) -> None:
    """Accept the float serving precisions; int8 is calibrated model state."""
    if precision not in ("float64", "float32"):
        raise ValueError(
            f"inference_precision must be 'float64' or 'float32', not "
            f"{precision!r}; int8 is entered with quantize_for_inference()"
        )


@dataclass
class ResuFormerConfig:
    """Hyper-parameters of the hierarchical encoder and its pre-training."""

    vocab_size: int = 2000
    # --- sentence-level encoder ---------------------------------------
    hidden_dim: int = 64
    sentence_layers: int = 2        # paper: 6
    sentence_heads: int = 4         # paper: 12
    max_sentence_tokens: int = 55   # paper: 55
    # --- document-level encoder ----------------------------------------
    document_layers: int = 2        # paper: 4
    document_heads: int = 4         # paper: 12
    max_document_sentences: int = 350  # paper: 350
    visual_dim: int = VISUAL_DIM
    visual_proj_dim: int = 16
    # --- shared ----------------------------------------------------------
    layout_buckets: int = 64        # coordinate buckets over [0, 1000]
    num_segments: int = 2           # [A]/[B]
    dropout: float = 0.1
    ffn_multiplier: int = 2
    # --- serving ----------------------------------------------------------
    #: Numeric regime of the inference fast path, applied when the model
    #: is built: "float64" (full precision, matches the training-graph
    #: forward to a few ulp of GEMM/LayerNorm round-off) or "float32"
    #: (single-precision kernels).  int8 is calibrated model state,
    #: entered with ``BlockClassifier.quantize_for_inference``.
    inference_precision: str = "float64"
    # --- pre-training (Section V-A2) -------------------------------------
    token_mask_prob: float = 0.15
    sentence_mask_ratio: float = 0.2   # "masked sentence ... account for 0.2"
    next_sentence_ratio: float = 0.2
    temperature: float = 0.8           # tau
    lambda_wp: float = 0.4
    lambda_cl: float = 1.0
    lambda_ns: float = 0.6

    @property
    def document_dim(self) -> int:
        """Width of the document-level stream: text ⊕ projected visual."""
        return self.hidden_dim + self.visual_proj_dim

    def validate(self) -> "ResuFormerConfig":
        if self.hidden_dim % self.sentence_heads != 0:
            raise ValueError("hidden_dim must divide sentence_heads")
        if self.document_dim % self.document_heads != 0:
            raise ValueError("document_dim must divide document_heads")
        if not 0.0 < self.temperature:
            raise ValueError("temperature must be positive")
        check_inference_precision(self.inference_precision)
        return self

    @classmethod
    def paper_scale(cls) -> "ResuFormerConfig":
        """The full Section V-A2 configuration (for reference; heavy on CPU)."""
        return cls(
            vocab_size=21128,
            hidden_dim=768,
            sentence_layers=6,
            sentence_heads=12,
            document_layers=4,
            document_heads=12,
            visual_proj_dim=96,  # document stream 768+96, divisible by 12
            ffn_multiplier=4,
        )
