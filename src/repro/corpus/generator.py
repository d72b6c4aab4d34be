"""End-to-end synthetic resume generation.

``ResumeGenerator`` composes the pipeline the paper applies to real PDFs:

1. plan logical content (:mod:`repro.corpus.content`),
2. lay it out with a randomly chosen visual template
   (:mod:`repro.corpus.templates`),
3. run the PyMuPDF-equivalent token→sentence segmentation
   (:mod:`repro.docmodel.segmentation`),
4. attach visual features (:mod:`repro.corpus.render`).

The output is a :class:`~repro.docmodel.ResumeDocument` carrying gold block
and entity annotations, so every experiment has ground truth available.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..docmodel.document import ResumeDocument
from ..docmodel.segmentation import SegmentationConfig, segment_tokens
from .content import ContentConfig, plan_resume
from .render import attach_visual_features
from .templates import ALL_TEMPLATES, LayoutTemplate

__all__ = ["ResumeGenerator"]


class ResumeGenerator:
    """Deterministic generator of annotated synthetic resumes."""

    def __init__(
        self,
        seed: int = 0,
        content_config: Optional[ContentConfig] = None,
        templates: Optional[Sequence[LayoutTemplate]] = None,
        segmentation: Optional[SegmentationConfig] = None,
    ):
        self.seed = seed
        self.content_config = content_config or ContentConfig.tiny()
        self.templates = list(templates) if templates else list(ALL_TEMPLATES)
        self.segmentation = segmentation or SegmentationConfig()

    def generate(self, doc_id: str, rng: np.random.Generator) -> ResumeDocument:
        """Generate one annotated resume document."""
        lines = plan_resume(rng, self.content_config)
        template = self.templates[int(rng.integers(0, len(self.templates)))]
        tokens, pages = template.layout(lines, rng)
        sentences = segment_tokens(tokens, self.segmentation)
        document = ResumeDocument(doc_id, pages, sentences)
        return attach_visual_features(document)

    def generate_at(self, index: int, prefix: str = "resume") -> ResumeDocument:
        """Generate the document at ``index`` under per-index seeding.

        Seeds a fresh generator from ``[seed, index]``, so any document can
        be produced on its own, in any order.  This draws a different
        stream from :meth:`stream`'s single sequential RNG:
        ``generate_at(i)`` does not reproduce the ``i``-th document of
        :meth:`stream`, but it is deterministic in ``(seed, index, prefix)``.
        """
        rng = np.random.default_rng([self.seed, index])
        return self.generate(f"{prefix}-{index:05d}", rng)

    def batch(self, count: int, prefix: str = "resume") -> List[ResumeDocument]:
        """Generate ``count`` documents reproducibly from the base seed."""
        return list(self.stream(count, prefix=prefix))

    def stream(self, count: int, prefix: str = "resume") -> Iterator[ResumeDocument]:
        """Lazily yield ``count`` documents (memory-friendly for pretraining)."""
        rng = np.random.default_rng(self.seed)
        for index in range(count):
            yield self.generate(f"{prefix}-{index:05d}", rng)
