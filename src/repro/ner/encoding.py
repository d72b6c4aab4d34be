"""Featurisation for intra-block NER (word-level labels over WordPiece).

The paper's NER model is a text-only BERT: blocks are WordPiece-tokenised,
the encoder contextualises the pieces, and word-level labels are predicted
at each word's *first* sub-word position (the standard alignment scheme).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..corpus.datasets import NerExample
from ..docmodel.labels import ENTITY_SCHEME, IobScheme
from ..text.wordpiece import WordPieceTokenizer

__all__ = ["NerFeatures", "NerFeaturizer", "SHAPE_DIM", "word_shape"]

#: Dimension of the per-piece surface-shape descriptor.
SHAPE_DIM = 8

#: Words the featurizer's shape memo may hold; a full memo is cleared on
#: its next miss, like the tokenizer's (``wordpiece.MEMO_CAP``).
SHAPE_MEMO_CAP = 1 << 16


def word_shape(word: str, position: int, total: int, is_initial: bool) -> np.ndarray:
    """Surface-shape features of a word (classic NER character features).

    Resume entities are format-heavy — phone numbers are digit runs, emails
    contain ``@``, names sit at the block head.  Large pre-trained encoders
    absorb these cues from raw sub-words; at this reproduction's scale we
    expose them explicitly, as the CNN-character channels of the paper's
    BiLSTM+CNN+CRF baselines do.
    """
    return np.array(
        _word_columns(word) + [1.0 if is_initial else 0.0, position / max(total, 1)]
    )


def _word_columns(word: str) -> List[float]:
    """The :func:`word_shape` columns that depend on the word alone."""
    n = max(len(word), 1)
    digits = sum(map(str.isdigit, word))
    return [
        1.0 if digits else 0.0,
        1.0 if digits == n else 0.0,
        digits / n,
        1.0 if "@" in word else 0.0,
        1.0 if word and not word.isalnum() else 0.0,
        min(n / 20.0, 1.0),
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
        # The word-only shape columns (all but is-initial and position),
        # memoised per raw word like the tokenizer's piece ids.
        self._word_shapes: Dict[str, List[float]] = {}

    def featurize(self, examples: Sequence[NerExample]) -> NerFeatures:
        """Batch a list of examples into padded arrays.

        The python loop only collects each kept word's piece ids, shape
        columns and label; the padded arrays are then filled batch-wide.
        Padding is trimmed to the batch's actual extents — attention cost
        is quadratic in the piece axis, so static max-size padding would
        dominate compute for short blocks.
        """
        if not examples:
            raise ValueError("cannot featurize an empty batch")
        cls_id = self.tokenizer.vocab.cls_id
        word_ids = self.tokenizer.word_ids
        word_shapes = self._word_shapes
        label_ids_of = {label: i for i, label in enumerate(self.scheme.labels)}
        outside = self.scheme.outside_id
        pieces: List[int] = []        # every row's pieces, [CLS] first
        counts: List[int] = []        # pieces of each kept word, all rows
        firsts: List[int] = []        # slot of each kept word's first piece
        shapes: List[List[float]] = []  # word-only columns of each kept word
        labels: List[int] = []
        lengths: List[int] = []       # pieces per row, [CLS] included
        kept: List[int] = []          # kept words per row
        totals: List[int] = []        # words per example (position scale)
        for example in examples:
            pieces.append(cls_id)
            used = 1
            start = len(shapes)
            for word in example.words[: self.max_words]:
                ids = word_ids(word)
                if used + len(ids) > self.max_pieces:
                    break
                firsts.append(used)
                used += len(ids)
                pieces.extend(ids)
                counts.append(len(ids))
                shape = word_shapes.get(word)
                if shape is None:
                    if len(word_shapes) >= SHAPE_MEMO_CAP:
                        word_shapes.clear()
                    shape = word_shapes[word] = _word_columns(word)
                shapes.append(shape)
            n = len(shapes) - start
            labels.extend(
                label_ids_of.get(label, outside) for label in example.labels[:n]
            )
            lengths.append(used)
            kept.append(n)
            totals.append(max(len(example.words), 1))

        b = len(examples)
        lengths_arr = np.array(lengths)
        kept_arr = np.array(kept)
        max_p = int(lengths_arr.max())
        max_w = max(int(kept_arr.max()), 1)
        piece_slots = np.arange(max_p) < lengths_arr[:, None]
        word_slots = np.arange(max_w) < kept_arr[:, None]
        piece_ids = np.zeros((b, max_p), dtype=np.int64)
        piece_ids[piece_slots] = pieces
        label_ids = np.zeros((b, max_w), dtype=np.int64)
        label_ids[word_slots] = labels
        first_piece = np.zeros((b, max_w), dtype=np.int64)
        first_piece[word_slots] = firsts

        # Every piece after [CLS] repeats its word's shape row; only a word's
        # first piece carries the is-initial flag.  Kept words are numbered
        # row-major across the batch.
        word_row = np.repeat(np.arange(b), kept_arr)
        word_index = np.arange(len(counts)) - np.repeat(
            np.cumsum(kept_arr) - kept_arr, kept_arr
        )
        owner = np.repeat(np.arange(len(counts)), counts)
        rows = np.empty((len(owner), SHAPE_DIM))
        rows[:, :6] = np.array(shapes).reshape(-1, 6)[owner]
        rows[:, 6] = np.diff(owner, prepend=-1) != 0
        rows[:, 7] = word_index[owner] / np.array(totals)[word_row[owner]]
        piece_shape = np.zeros((b, max_p, SHAPE_DIM))
        piece_shape[piece_slots & (np.arange(max_p) > 0)] = rows
        return NerFeatures(
            piece_ids,
            piece_slots.astype(np.float64),
            first_piece,
            word_slots.astype(np.float64),
            label_ids,
            piece_shape,
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
