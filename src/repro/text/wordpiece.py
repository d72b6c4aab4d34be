"""A trainable WordPiece tokenizer (Sennrich-style subword units).

The paper tokenises resume text with WordPiece before feeding the
sentence-level encoder.  This implementation trains a vocabulary by
iterative pair merging over a word-frequency table (the standard BPE-style
WordPiece trainer) and tokenises with greedy longest-match-first using the
``##`` continuation convention.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

from .normalize import pretokenize
from .vocab import UNK, Vocab

__all__ = ["WordPieceTokenizer", "train_wordpiece"]

_CONTINUATION = "##"

#: Entries each per-word memo may hold.  A serving process meets new words
#: (names, emails, phone numbers) with every resume, so a full memo is
#: cleared on its next miss and refills with the words still in use.
MEMO_CAP = 1 << 16


def _word_to_units(word: str) -> Tuple[str, ...]:
    """Split a word into its initial character units with ## markers."""
    return tuple(
        ch if i == 0 else _CONTINUATION + ch for i, ch in enumerate(word)
    )


def _merge_units(units: Tuple[str, ...], pair: Tuple[str, str]) -> Tuple[str, ...]:
    merged: List[str] = []
    i = 0
    while i < len(units):
        if i + 1 < len(units) and (units[i], units[i + 1]) == pair:
            right = units[i + 1]
            right = right[len(_CONTINUATION) :] if right.startswith(_CONTINUATION) else right
            merged.append(units[i] + right)
            i += 2
        else:
            merged.append(units[i])
            i += 1
    return tuple(merged)


def train_wordpiece(
    texts: Iterable[str],
    vocab_size: int = 2000,
    min_frequency: int = 2,
) -> Vocab:
    """Learn a WordPiece vocabulary from raw texts.

    Starts from the character alphabet and repeatedly merges the most
    frequent adjacent unit pair until ``vocab_size`` is reached or no pair
    occurs at least ``min_frequency`` times.
    """
    word_freq: Counter = Counter()
    for text in texts:
        word_freq.update(pretokenize(text))

    segmentations: Dict[str, Tuple[str, ...]] = {
        word: _word_to_units(word) for word in word_freq
    }
    alphabet = sorted({unit for units in segmentations.values() for unit in units})
    vocab_tokens: List[str] = list(alphabet)

    while len(vocab_tokens) < vocab_size:
        pair_freq: Counter = Counter()
        for word, units in segmentations.items():
            freq = word_freq[word]
            for a, b in zip(units, units[1:]):
                pair_freq[(a, b)] += freq
        if not pair_freq:
            break
        (best_pair, best_count) = pair_freq.most_common(1)[0]
        if best_count < min_frequency:
            break
        for word, units in segmentations.items():
            segmentations[word] = _merge_units(units, best_pair)
        left, right = best_pair
        right = right[len(_CONTINUATION) :] if right.startswith(_CONTINUATION) else right
        vocab_tokens.append(left + right)

    return Vocab(vocab_tokens)


class WordPieceTokenizer:
    """Greedy longest-match-first WordPiece tokenisation over a vocab."""

    def __init__(self, vocab: Vocab, max_word_chars: int = 64):
        self.vocab = vocab
        self.max_word_chars = max_word_chars
        self._cache: dict = {}
        self._ids: Dict[str, Tuple[int, ...]] = {}

    @classmethod
    def train(
        cls,
        texts: Iterable[str],
        vocab_size: int = 2000,
        min_frequency: int = 2,
    ) -> "WordPieceTokenizer":
        return cls(train_wordpiece(texts, vocab_size, min_frequency))

    def tokenize_word(self, word: str) -> List[str]:
        """Tokenise a single (already normalised) word into subwords.

        Results are memoised — resume corpora repeat words heavily, and
        tokenisation is on the inference hot path.  The memo holds at most
        :data:`MEMO_CAP` words.
        """
        cached = self._cache.get(word)
        if cached is not None:
            return list(cached)
        pieces = self._tokenize_word_uncached(word)
        if len(self._cache) >= MEMO_CAP:
            self._cache.clear()
        self._cache[word] = tuple(pieces)
        return pieces

    def word_ids(self, word: str) -> Tuple[int, ...]:
        """Vocabulary ids of a raw (not yet lowercased) word.

        Equal to ``vocab.encode(tokenize_word(word.lower()))``, memoised per
        raw word (bypassing the :meth:`tokenize_word` cache, so a word is
        held once): the featurisers of both serving stages call this for
        every word, so a parser whose stages share one tokenizer looks each
        distinct word up once per process (up to :data:`MEMO_CAP` words).
        The tuple keeps callers from mutating the memo.
        """
        ids = self._ids.get(word)
        if ids is None:
            pieces = self._tokenize_word_uncached(word.lower())
            if len(self._ids) >= MEMO_CAP:
                self._ids.clear()
            ids = self._ids[word] = tuple(self.vocab.encode(pieces))
        return ids

    def _tokenize_word_uncached(self, word: str) -> List[str]:
        if len(word) > self.max_word_chars:
            return [UNK]
        pieces = self._greedy_match(word)
        if pieces is not None:
            return pieces
        # Words with internal punctuation (phones, emails, dates) cannot
        # match a vocabulary trained on punctuation-split text; fall back to
        # BERT's basic-tokenizer behaviour — split on punctuation and
        # tokenise each chunk — while still emitting one piece list for the
        # whole word so word-level label alignment is preserved.
        chunks = pretokenize(word)
        if len(chunks) <= 1:
            return [UNK]
        pieces = []
        for chunk in chunks:
            chunk_pieces = self._greedy_match(chunk)
            pieces.extend(chunk_pieces if chunk_pieces is not None else [UNK])
        return pieces

    def _greedy_match(self, word: str) -> Optional[List[str]]:
        """Longest-match-first WordPiece; None when unmatchable."""
        if not word:
            return []
        pieces: List[str] = []
        start = 0
        while start < len(word):
            end = len(word)
            piece: Optional[str] = None
            while start < end:
                candidate = word[start:end]
                if start > 0:
                    candidate = _CONTINUATION + candidate
                if candidate in self.vocab:
                    piece = candidate
                    break
                end -= 1
            if piece is None:
                return None
            pieces.append(piece)
            start = end
        return pieces

    def tokenize(self, text: str) -> List[str]:
        """Tokenise raw text into subword strings."""
        tokens: List[str] = []
        for word in pretokenize(text):
            tokens.extend(self.tokenize_word(word))
        return tokens

    def encode(self, text: str) -> List[int]:
        """Tokenise and map to vocabulary ids."""
        return self.vocab.encode(self.tokenize(text))

    def decode(self, ids: Iterable[int]) -> str:
        """Best-effort inverse: join subwords, removing ## markers."""
        words: List[str] = []
        for token in self.vocab.decode(list(ids)):
            if token.startswith(_CONTINUATION) and words:
                words[-1] += token[len(_CONTINUATION) :]
            else:
                words.append(token)
        return " ".join(words)
