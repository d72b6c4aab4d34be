"""Document data model: tokens, sentences, pages, resumes.

Mirrors the paper's Section III: a parsed resume is a list of tokens
``(word, bbox, page)`` that get concatenated into "sentences" (rows of
adjacent tokens, not grammatical sentences), each carrying merged layout
coordinates, the page index, and — in the synthetic corpus — gold block and
entity annotations plus style attributes used for visual features.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .geometry import BBox, merge_boxes
from .labels import IobScheme

__all__ = ["Token", "Sentence", "Page", "ResumeDocument", "InvalidDocumentError"]


class InvalidDocumentError(ValueError):
    """A resume the parser must refuse, naming the offending document."""

    def __init__(self, doc_id: str, reason: str):
        super().__init__(doc_id, reason)
        self.doc_id = doc_id
        self.reason = reason

    def __str__(self) -> str:
        return f"document {self.doc_id}: {self.reason}"


@dataclass
class Token:
    """A word with its layout box, page and (optional) gold annotations."""

    word: str
    bbox: BBox
    page: int
    # Style attributes (from the synthetic renderer; a real pipeline would
    # read them from the PDF font dictionary).
    font_size: float = 10.0
    bold: bool = False
    color: int = 0
    # Gold annotations (None/"O" outside the synthetic corpus).
    block_tag: Optional[str] = None
    block_id: Optional[int] = None
    entity_label: str = "O"

    @property
    def center_y(self) -> float:
        return (self.bbox.y0 + self.bbox.y1) / 2.0


@dataclass
class Sentence:
    """A row of adjacent tokens with a merged bounding box (Section III-A)."""

    tokens: List[Token]
    page: int
    visual: Optional[Sequence[float]] = None

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("a sentence needs at least one token")

    @property
    def bbox(self) -> BBox:
        return merge_boxes(token.bbox for token in self.tokens)

    @property
    def text(self) -> str:
        return " ".join(token.word for token in self.tokens)

    @property
    def words(self) -> List[str]:
        return [token.word for token in self.tokens]

    def majority_block(self) -> Tuple[Optional[str], Optional[int]]:
        """The dominant gold ``(block_tag, block_id)`` among the tokens."""
        votes = Counter(
            (t.block_tag, t.block_id) for t in self.tokens if t.block_tag
        )
        if not votes:
            return None, None
        return votes.most_common(1)[0][0]

    @property
    def mean_font_size(self) -> float:
        return sum(t.font_size for t in self.tokens) / len(self.tokens)

    @property
    def bold_fraction(self) -> float:
        return sum(1.0 for t in self.tokens if t.bold) / len(self.tokens)


@dataclass
class Page:
    """Physical page geometry."""

    number: int
    width: float = 612.0  # US Letter points, the generator default
    height: float = 792.0


@dataclass
class ResumeDocument:
    """A parsed resume: pages plus reading-ordered sentences."""

    doc_id: str
    pages: List[Page]
    sentences: List[Sentence] = field(default_factory=list)

    @property
    def num_pages(self) -> int:
        return len(self.pages)

    @property
    def num_sentences(self) -> int:
        return len(self.sentences)

    @property
    def num_tokens(self) -> int:
        return sum(len(s.tokens) for s in self.sentences)

    def tokens(self) -> List[Token]:
        """All tokens in reading order."""
        return [token for sentence in self.sentences for token in sentence.tokens]

    def page(self, number: int) -> Page:
        for page in self.pages:
            if page.number == number:
                return page
        raise KeyError(f"no page {number} in document {self.doc_id}")

    # ------------------------------------------------------------------
    # Gold label extraction (synthetic corpus only)
    # ------------------------------------------------------------------
    def block_iob_labels(self, scheme: IobScheme) -> List[int]:
        """Sentence-level gold IOB ids derived from token block annotations.

        The first sentence of each block instance gets ``B-tag``; subsequent
        sentences of the same instance get ``I-tag``; unannotated sentences
        get ``O``.
        """
        labels: List[int] = []
        previous_id: Optional[int] = None
        for sentence in self.sentences:
            tag, block_id = sentence.majority_block()
            if tag is None:
                labels.append(scheme.outside_id)
                previous_id = None
            elif block_id != previous_id:
                labels.append(scheme.begin_id(tag))
                previous_id = block_id
            else:
                labels.append(scheme.inside_id(tag))
        return labels

    def token_block_tags(self) -> List[Optional[str]]:
        """Token-level gold block tags (for area-metric evaluation)."""
        return [token.block_tag for token in self.tokens()]
