"""Convert :class:`~repro.docmodel.ResumeDocument` into model input arrays.

Implements the input pipeline of Section IV-A1: WordPiece-tokenise each
sentence, prepend ``[CLS]``, normalise every token's bounding box to the
``[0, 1000]`` grid, and assemble the seven-tuple layout features
``(x_min, y_min, x_max, y_max, width, height, page)`` at both the token and
the sentence level, plus 1-D positions, segment symbols and the sentence
visual descriptors.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..corpus.render import VISUAL_DIM, sentence_visual_features
from ..docmodel.document import InvalidDocumentError, ResumeDocument
from ..docmodel.geometry import LAYOUT_SCALE, BBox
from ..text.wordpiece import WordPieceTokenizer
from .config import ResuFormerConfig

__all__ = ["DocumentFeatures", "FeatureCache", "Featurizer", "LAYOUT_FEATURES"]

#: Order of the per-token/per-sentence layout features.
LAYOUT_FEATURES = ("x_min", "y_min", "x_max", "y_max", "width", "height", "page")

_MAX_PAGES = 16

#: Every live FeatureCache, for the fork guard below.  Weak references:
#: registration must not keep discarded caches (and their features) alive.
_LIVE_CACHES: "weakref.WeakSet" = weakref.WeakSet()


def _clear_caches_after_fork() -> None:
    """Empty every inherited cache in a freshly forked child.

    Cache keys are parent-process object identities; in the child they
    alias whatever the child's allocator later places at those addresses,
    so an inherited entry could serve a *stale hit* for a different
    document.  Clearing on fork (stats preserved — the child continues
    the parent's counters) makes identity keying per-process by
    construction.  Spawned workers never inherit caches and are
    unaffected; the guard exists for ``fork``-start users.
    """
    for cache in list(_LIVE_CACHES):
        # The fork may have happened while another parent thread held the
        # cache lock; that holder does not exist in the child, so the
        # inherited lock could be permanently stuck.  Replace it before
        # taking it.
        cache._lock = threading.Lock()
        cache.clear(preserve_stats=True)


if hasattr(os, "register_at_fork"):  # not available on Windows
    os.register_at_fork(after_in_child=_clear_caches_after_fork)


@dataclass
class DocumentFeatures:
    """Dense arrays for one document (``m`` sentences, ``t`` token slots)."""

    token_ids: np.ndarray       # (m, t) int
    token_mask: np.ndarray      # (m, t) 0/1
    token_layout: np.ndarray    # (m, t, 7) int, bucketised
    token_segments: np.ndarray  # (m, t) int
    sentence_layout: np.ndarray  # (m, 7) int
    sentence_visual: np.ndarray  # (m, VISUAL_DIM) float
    sentence_positions: np.ndarray  # (m,) int
    sentence_segments: np.ndarray   # (m,) int

    @property
    def num_sentences(self) -> int:
        return self.token_ids.shape[0]

    @property
    def max_tokens(self) -> int:
        return self.token_ids.shape[1]


class FeatureCache:
    """LRU cache of :class:`DocumentFeatures` keyed by document identity.

    Keys are object identities guarded by a weak reference: a recycled
    ``id()`` from a garbage-collected document can never alias a live entry.
    Features are deterministic for a given document object, so repeated
    ``predict`` calls and per-epoch validation sweeps hit instead of
    re-running WordPiece tokenisation and layout bucketing.

    **Caches are strictly per-process.**  Identity keys are meaningless in
    any other process (same integer, different object), and the weakref
    guard cannot help because a forked child's aliases are *live* objects.
    Two defenses keep multi-process use safe: every cache clears itself in
    a forked child (``os.register_at_fork``, entries dropped, stats kept),
    and ``repro.parallel`` workers never receive a pickled cache at all —
    each worker builds a fresh :class:`Featurizer` whose shard-local cache
    warms up on that worker's own shard (its hit rate is exported as the
    ``parallel.feature_cache.hit_rate{worker=}`` gauge).

    When a :mod:`repro.obs` telemetry session is active, every hit, miss
    and LRU eviction also increments the session counters
    ``feature_cache.hits`` / ``feature_cache.misses`` /
    ``feature_cache.evictions``, and each lookup refreshes the live
    ``feature_cache.hit_rate`` gauge — alert rules can watch the rate
    mid-run instead of waiting for :meth:`export_metrics`.
    """

    def __init__(self, maxsize: int = 256):
        if maxsize <= 0:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[int, Tuple[weakref.ref, DocumentFeatures]]" = (
            OrderedDict()
        )
        # Entries and counters are mutated under this lock (concurrent
        # predict() calls share one cache); telemetry publishing happens
        # after release so a metrics lock is never taken while holding it.
        self._lock = threading.Lock()
        _LIVE_CACHES.add(self)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def lookup(self, document: ResumeDocument) -> Optional[DocumentFeatures]:
        """Return cached features for ``document``, or None (counts a miss)."""
        features: Optional[DocumentFeatures] = None
        with self._lock:
            entry = self._entries.get(id(document))
            if entry is not None:
                ref, cached = entry
                if ref() is document:
                    self._entries.move_to_end(id(document))
                    self.hits += 1
                    features = cached
                else:
                    del self._entries[id(document)]
            if features is None:
                self.misses += 1
            hit_rate = self.hit_rate
        telemetry = obs.get_telemetry()
        if telemetry is not None:
            counter = (
                "feature_cache.hits" if features is not None
                else "feature_cache.misses"
            )
            telemetry.metrics.counter(counter).inc()
            telemetry.metrics.gauge("feature_cache.hit_rate").set(hit_rate)
        return features

    def store(self, document: ResumeDocument, features: DocumentFeatures) -> None:
        evicted = 0
        with self._lock:
            self._entries[id(document)] = (weakref.ref(document), features)
            self._entries.move_to_end(id(document))
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if evicted:
            telemetry = obs.get_telemetry()
            if telemetry is not None:
                telemetry.metrics.counter("feature_cache.evictions").inc(evicted)

    def clear(self, preserve_stats: bool = False) -> None:
        """Drop every entry; ``preserve_stats=True`` keeps the cumulative
        hit/miss/eviction counters (long-running services clear entries to
        release memory without losing their lifetime totals)."""
        with self._lock:
            self._entries.clear()
            if not preserve_stats:
                self.hits = 0
                self.misses = 0
                self.evictions = 0

    def info(self) -> Dict[str, int]:
        """Counters for tests and the profiling report."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "size": len(self._entries),
            "maxsize": self.maxsize,
        }

    def export_metrics(self, registry) -> None:
        """Publish the cumulative counters as gauges on ``registry``.

        The incremental counters above only cover lookups made while a
        session was active; this pushes the lifetime totals (e.g. at
        snapshot time) for caches that predate the session.
        """
        registry.gauge("feature_cache.size").set(len(self._entries))
        registry.gauge("feature_cache.hit_rate").set(self.hit_rate)
        registry.gauge("feature_cache.total_hits").set(self.hits)
        registry.gauge("feature_cache.total_misses").set(self.misses)
        registry.gauge("feature_cache.total_evictions").set(self.evictions)


class Featurizer:
    """Featuriser binding a tokenizer to a model config.

    Featurisation is pure in the document, so results are memoised in an
    identity-keyed LRU (:class:`FeatureCache`) by default; pass
    ``cache_size=0`` to disable.  Callers must treat the returned arrays as
    read-only.
    """

    def __init__(
        self,
        tokenizer: WordPieceTokenizer,
        config: ResuFormerConfig,
        cache_size: int = 256,
    ):
        self.tokenizer = tokenizer
        self.config = config
        self.cache = FeatureCache(cache_size) if cache_size else None

    # ------------------------------------------------------------------
    def featurize(self, document: ResumeDocument) -> DocumentFeatures:
        """Build (or fetch from cache) the feature bundle for one document."""
        if self.cache is None:
            return self._compute(document)
        features = self.cache.lookup(document)
        if features is None:
            features = self._compute(document)
            self.cache.store(document, features)
        return features

    def featurize_many(
        self, documents: Sequence[ResumeDocument], repeats: int = 1
    ) -> List[DocumentFeatures]:
        """Featurize a document list through the cache, in order.

        ``repeats`` runs the sweep that many times (later passes are cache
        hits for any document still resident) and returns the final pass —
        benchmarks use it to measure warm-cache throughput.
        """
        if repeats <= 0:
            raise ValueError("repeats must be positive")
        for _ in range(repeats - 1):
            for document in documents:
                self.featurize(document)
        return [self.featurize(document) for document in documents]

    def _compute(self, document: ResumeDocument) -> DocumentFeatures:
        """Build the full feature bundle for one document.

        The python loop only checks pages and collects per-sentence values;
        the document's words are looked up in one pass through the
        tokenizer's memo, and every token slot, box and layout bucket is
        built in array operations.  Sub-word pieces inherit their source
        word's box (the LayoutLM convention) and each row's leading
        ``[CLS]`` carries the merged sentence box.
        """
        sentences = document.sentences[: self.config.max_document_sentences]
        if not sentences:
            raise ValueError(f"document {document.doc_id} has no sentences")
        cap = self.config.max_sentence_tokens
        m = len(sentences)

        extents: List[Tuple[float, float, float, float]] = []  # one per sentence
        counts: List[int] = []
        visuals: List[Sequence[float]] = []
        for row, sentence in enumerate(sentences):
            try:
                page = document.page(sentence.page)
            except KeyError:
                raise InvalidDocumentError(
                    document.doc_id,
                    f"sentence {row} names missing page {sentence.page}",
                ) from None
            if page.width <= 0 or page.height <= 0:
                raise InvalidDocumentError(
                    document.doc_id, f"page extent must be positive: {page}"
                )
            extents.append((page.width, page.height, page.width, page.height))
            counts.append(len(sentence.tokens))
            visuals.append(
                sentence.visual if sentence.visual is not None
                else sentence_visual_features(sentence, page.width, page.height)
            )
        tokens = list(chain.from_iterable(s.tokens for s in sentences))
        pieces = list(map(self.tokenizer.word_ids, [token.word for token in tokens]))

        # Row r is [CLS] then its words' pieces, cut at ``cap``.  Each piece
        # takes its word's row of the layout table below (m + word index)
        # and each [CLS] its sentence's row.
        spans = np.fromiter(map(len, pieces), dtype=np.int64, count=len(pieces))
        word_starts = np.cumsum(counts) - counts
        per_row = np.add.reduceat(spans, word_starts)
        before = np.cumsum(per_row) - per_row
        full_ids = np.insert(
            np.fromiter(chain.from_iterable(pieces), dtype=np.int64,
                        count=int(per_row.sum())),
            before, self.tokenizer.vocab.cls_id,
        )
        full_units = np.insert(
            np.repeat(np.arange(m, m + len(tokens)), spans), before, np.arange(m)
        )
        widths = per_row + 1
        row_starts = np.cumsum(widths) - widths
        kept = np.arange(len(full_ids)) - np.repeat(row_starts, widths) < cap
        ids = full_ids[kept]
        units = full_units[kept]
        lengths = np.minimum(widths, cap)

        # Normalise onto the [0, 1000] grid exactly as BBox.normalized does
        # (round half to even, then clamp).  Normalisation is monotone, so a
        # sentence's merged box is the min/max of its words' normalised boxes.
        scale = np.repeat(np.array(extents), counts, axis=0)
        coords = np.fromiter(
            chain.from_iterable([token.bbox.to_tuple() for token in tokens]),
            dtype=np.float64, count=4 * len(tokens),
        ).reshape(-1, 4)
        words = np.clip(
            np.rint(LAYOUT_SCALE * coords / scale),
            0, LAYOUT_SCALE,
        ).astype(np.int64)
        merged = np.concatenate(
            [
                np.minimum.reduceat(words[:, :2], word_starts),
                np.maximum.reduceat(words[:, 2:], word_starts),
            ],
            axis=1,
        )
        table = self._bucketize(
            np.concatenate([merged, words]),
            np.array(
                [s.page for s in sentences] + [token.page for token in tokens],
                dtype=np.int64,
            ),
        )

        t = int(lengths.max())
        mask = np.arange(t) < lengths[:, None]
        token_ids = np.zeros((m, t), dtype=np.int64)
        token_ids[mask] = ids
        token_layout = np.zeros((m, t, 7), dtype=np.int64)
        token_layout[mask] = table[units]
        positions = np.arange(m, dtype=np.int64)
        return DocumentFeatures(
            token_ids=token_ids,
            token_mask=mask.astype(np.float64),
            token_layout=token_layout,
            token_segments=np.zeros((m, t), dtype=np.int64),
            sentence_layout=table[:m].copy(),  # not a view pinning the word rows
            sentence_visual=np.array(visuals, dtype=np.float64).reshape(
                m, VISUAL_DIM
            ),
            sentence_positions=positions,
            sentence_segments=(positions % self.config.num_segments).astype(np.int64),
        )

    # ------------------------------------------------------------------
    def _bucketize(self, boxes: np.ndarray, pages: np.ndarray) -> np.ndarray:
        """Bucketise ``(n, 4)`` normalised boxes and pages into ``(n, 7)`` indices."""
        buckets = self.config.layout_buckets
        scale = 1000 // buckets + (1 if 1000 % buckets else 0)
        x0, y0, x1, y1 = boxes.T
        spatial = np.stack([x0, y0, x1, y1, x1 - x0, y1 - y0], axis=1)
        layout = np.empty((len(boxes), 7), dtype=np.int64)
        layout[:, :6] = np.minimum(spatial.astype(np.int64) // scale, buckets - 1)
        layout[:, 6] = np.minimum(pages, _MAX_PAGES - 1)
        return layout

    def _layout_tuple(self, box: BBox, page: int) -> np.ndarray:
        """Bucketise one normalised box into embedding indices."""
        return self._bucketize(np.array([box.to_tuple()]), np.array([page]))[0]
