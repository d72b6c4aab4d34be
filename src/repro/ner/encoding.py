"""Featurisation for intra-block NER (word-level labels over WordPiece).

The paper's NER model is a text-only BERT: blocks are WordPiece-tokenised,
the encoder contextualises the pieces, and word-level labels are predicted
at each word's *first* sub-word position (the standard alignment scheme).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..corpus.datasets import NerExample
from ..docmodel.labels import ENTITY_SCHEME, IobScheme
from ..text.wordpiece import WordPieceTokenizer

__all__ = ["NerFeatures", "NerFeaturizer", "SHAPE_DIM", "word_shape"]

#: Dimension of the per-piece surface-shape descriptor.
SHAPE_DIM = 8


def word_shape(word: str, position: int, total: int, is_initial: bool) -> np.ndarray:
    """Surface-shape features of a word (classic NER character features).

    Resume entities are format-heavy — phone numbers are digit runs, emails
    contain ``@``, names sit at the block head.  Large pre-trained encoders
    absorb these cues from raw sub-words; at this reproduction's scale we
    expose them explicitly, as the CNN-character channels of the paper's
    BiLSTM+CNN+CRF baselines do.
    """
    return np.array(_shape_row(word, position, total, is_initial))


def _shape_row(word: str, position: int, total: int, is_initial: bool) -> List[float]:
    """The :func:`word_shape` values as a plain list."""
    n = max(len(word), 1)
    digits = sum(map(str.isdigit, word))
    return [
        1.0 if digits else 0.0,
        1.0 if digits == n else 0.0,
        digits / n,
        1.0 if "@" in word else 0.0,
        1.0 if word and not word.isalnum() else 0.0,
        min(n / 20.0, 1.0),
        1.0 if is_initial else 0.0,
        position / max(total, 1),
    ]


@dataclass
class NerFeatures:
    """Padded batch arrays for ``b`` examples.

    ``first_piece`` maps each word slot to the index of its first WordPiece
    in the piece sequence (0, the [CLS] slot, for padding words —
    ``word_mask`` distinguishes real words).
    """

    piece_ids: np.ndarray     # (b, p) int
    piece_mask: np.ndarray    # (b, p) 0/1
    first_piece: np.ndarray   # (b, w) int
    word_mask: np.ndarray     # (b, w) 0/1
    label_ids: np.ndarray     # (b, w) int (scheme ids; 0 where padded)
    piece_shape: np.ndarray = None  # (b, p, SHAPE_DIM) float

    @property
    def batch_size(self) -> int:
        return self.piece_ids.shape[0]

    @property
    def max_words(self) -> int:
        return self.first_piece.shape[1]


class NerFeaturizer:
    """Tokenise and batch :class:`NerExample` lists."""

    def __init__(
        self,
        tokenizer: WordPieceTokenizer,
        scheme: IobScheme = ENTITY_SCHEME,
        max_words: int = 96,
        max_pieces: int = 192,
    ):
        self.tokenizer = tokenizer
        self.scheme = scheme
        self.max_words = max_words
        self.max_pieces = max_pieces

    def featurize(self, examples: Sequence[NerExample]) -> NerFeatures:
        """Batch a list of examples into padded arrays."""
        if not examples:
            raise ValueError("cannot featurize an empty batch")
        b = len(examples)
        piece_ids = np.zeros((b, self.max_pieces), dtype=np.int64)
        piece_mask = np.zeros((b, self.max_pieces), dtype=np.float64)
        first_piece = np.zeros((b, self.max_words), dtype=np.int64)
        word_mask = np.zeros((b, self.max_words), dtype=np.float64)
        label_ids = np.zeros((b, self.max_words), dtype=np.int64)
        piece_shape = np.zeros((b, self.max_pieces, SHAPE_DIM))

        vocab = self.tokenizer.vocab
        label_ids_of = {label: i for i, label in enumerate(self.scheme.labels)}
        outside = self.scheme.outside_id
        for row, example in enumerate(examples):
            pieces: List[int] = [vocab.cls_id]
            firsts: List[int] = []
            # One shape row per word; a word's continuation pieces repeat it
            # with the is-initial flag cleared.
            shapes: List[List[float]] = []
            owner: List[int] = []
            total = len(example.words)
            for w, word in enumerate(example.words[: self.max_words]):
                ids = vocab.encode(self.tokenizer.tokenize_word(word.lower()))
                if len(pieces) + len(ids) > self.max_pieces:
                    break
                firsts.append(len(pieces))
                pieces.extend(ids)
                owner.extend([w] * len(ids))
                shapes.append(_shape_row(word, w, total, is_initial=True))
            kept = len(firsts)
            first_piece[row, :kept] = firsts
            word_mask[row, :kept] = 1.0
            label_ids[row, :kept] = [
                label_ids_of.get(label, outside) for label in example.labels[:kept]
            ]
            piece_ids[row, : len(pieces)] = pieces
            piece_mask[row, : len(pieces)] = 1.0
            if owner:
                rows = np.array(shapes)[owner]
                rows[1:, 6] = np.diff(owner) != 0
                piece_shape[row, 1 : len(pieces)] = rows

        # Trim padding to the batch's actual extents — attention cost is
        # quadratic in the piece axis, so static max-size padding would
        # dominate compute for short blocks.
        max_p = max(int(piece_mask.sum(axis=1).max()), 1)
        max_w = max(int(word_mask.sum(axis=1).max()), 1)
        return NerFeatures(
            piece_ids[:, :max_p],
            piece_mask[:, :max_p],
            first_piece[:, :max_w],
            word_mask[:, :max_w],
            label_ids[:, :max_w],
            piece_shape[:, :max_p],
        )

    def batches(
        self,
        examples: Sequence[NerExample],
        batch_size: int,
        rng: Optional[np.random.Generator] = None,
    ):
        """Yield featurised mini-batches, optionally shuffled."""
        order = np.arange(len(examples))
        if rng is not None:
            order = rng.permutation(order)
        for start in range(0, len(order), batch_size):
            chunk = [examples[i] for i in order[start : start + batch_size]]
            yield self.featurize(chunk), chunk
