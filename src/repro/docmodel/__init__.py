"""``repro.docmodel`` — document geometry, structure and label schemes."""

from .document import InvalidDocumentError, Page, ResumeDocument, Sentence, Token
from .geometry import LAYOUT_SCALE, BBox, merge_boxes, normalize_coordinate
from .labels import (
    BLOCK_ENTITIES,
    BLOCK_SCHEME,
    BLOCK_TAGS,
    ENTITY_SCHEME,
    ENTITY_TAGS,
    IobScheme,
    iob_to_spans,
    spans_to_iob,
)
from .segmentation import SegmentationConfig, segment_tokens

__all__ = [
    "BBox",
    "LAYOUT_SCALE",
    "merge_boxes",
    "normalize_coordinate",
    "Token",
    "Sentence",
    "Page",
    "ResumeDocument",
    "InvalidDocumentError",
    "BLOCK_TAGS",
    "ENTITY_TAGS",
    "BLOCK_ENTITIES",
    "BLOCK_SCHEME",
    "ENTITY_SCHEME",
    "IobScheme",
    "spans_to_iob",
    "iob_to_spans",
    "SegmentationConfig",
    "segment_tokens",
]
