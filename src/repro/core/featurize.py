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
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..corpus.render import VISUAL_DIM, sentence_visual_features
from ..docmodel.document import InvalidDocumentError, ResumeDocument
from ..docmodel.geometry import LAYOUT_SCALE, BBox
from ..text.wordpiece import WordPieceTokenizer
from .config import ResuFormerConfig

__all__ = [
    "DocumentFeatures", "FeatureCache", "Featurizer", "IdentityCache",
    "LAYOUT_FEATURES",
]

#: Order of the per-token/per-sentence layout features.
LAYOUT_FEATURES = ("x_min", "y_min", "x_max", "y_max", "width", "height", "page")

_MAX_PAGES = 16

#: Every live FeatureCache, for the fork guard below.  Weak references:
#: registration must not keep discarded caches (and their features) alive.
_LIVE_CACHES: "weakref.WeakSet" = weakref.WeakSet()


def _clear_caches_after_fork() -> None:
    """Empty every inherited cache (stats kept) in a freshly forked child.

    Cache keys are parent-process object identities; in the child they
    alias whatever the child's allocator later places at those addresses,
    so an inherited entry could serve a *stale hit* for a different
    document.  Spawned processes never inherit caches.
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


class IdentityCache:
    """LRU map from live objects to values, keyed by object identity.

    Each entry holds a weak reference to its object, so a recycled ``id()``
    never aliases a live entry, and an entry lasts only as long as its
    object.  The reference's callback only queues the dead reference: it
    can fire in a garbage-collection pass inside a caller's critical
    section, so it touches neither the entries nor a lock.  :meth:`get`,
    :meth:`store` and ``len()`` purge the queue first, deleting an entry
    only if it still holds that reference (ids are recycled).  Not
    thread-safe on its own; :class:`FeatureCache` adds the lock.  ``key in
    cache`` asks, for introspection, whether a live entry sits at a raw id.
    """

    def __init__(self, maxsize: int):
        if maxsize <= 0:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = maxsize
        self.evictions = 0
        self.expirations = 0
        self._entries: "OrderedDict[int, Tuple[weakref.KeyedRef, Any]]" = OrderedDict()
        self._pending: List[weakref.KeyedRef] = []

    def _purge(self) -> None:
        while self._pending:
            ref = self._pending.pop()
            if self._entries.get(ref.key, (None,))[0] is ref:
                del self._entries[ref.key]
                self.expirations += 1

    def get(self, obj: Any) -> Tuple[bool, Any]:
        """``(found, value)``; ``value`` may legitimately be None."""
        self._purge()
        ref, value = self._entries.get(id(obj), (None, None))
        if ref is None or ref() is not obj:
            return False, None
        self._entries.move_to_end(id(obj))
        return True, value

    def store(self, obj: Any, value: Any) -> None:
        self._purge()
        key = id(obj)
        self._entries[key] = (weakref.KeyedRef(obj, self._pending.append, key), value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        self._purge()
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return key in self._entries and self._entries[key][0]() is not None

    def clear(self) -> None:
        self._entries.clear()
        self._pending.clear()


class FeatureCache(IdentityCache):
    """Thread-safe :class:`IdentityCache` of :class:`DocumentFeatures`.

    Features are deterministic for a given document object, so repeated
    ``predict`` calls and per-epoch validation sweeps hit instead of
    re-running WordPiece tokenisation and layout bucketing.

    **Caches are strictly per-process**: identity keys mean nothing in
    another process, so every cache clears itself (entries and queued
    references, stats kept) in a forked child.

    In a :mod:`repro.obs` telemetry session every hit, miss, LRU eviction
    and expiration (a document that died) increments the counter
    ``feature_cache.hits`` / ``.misses`` / ``.evictions`` / ``.expirations``
    and each lookup sets the ``feature_cache.hit_rate`` gauge.  Evictions
    say the cache is too small; expirations, that documents are transient.
    """

    def __init__(self, maxsize: int = 256):
        super().__init__(maxsize)
        self.hits = 0
        self.misses = 0
        # Entries and counters are mutated under this lock (concurrent
        # predict() calls share one cache); telemetry publishing happens
        # after release so a metrics lock is never taken while holding it.
        self._lock = threading.Lock()
        _LIVE_CACHES.add(self)

    def __len__(self) -> int:
        return self.info()["size"]

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def lookup(self, document: ResumeDocument) -> Optional[DocumentFeatures]:
        """Return cached features for ``document``, or None (counts a miss)."""
        with self._lock:
            expired = self.expirations
            found, features = self.get(document)
            self.hits += found
            self.misses += not found
            hit_rate, expired = self.hit_rate, self.expirations - expired
        _publish({"hits" if found else "misses": 1, "expirations": expired}, hit_rate)
        return features

    def store(self, document: ResumeDocument, features: DocumentFeatures) -> None:
        with self._lock:
            evicted, expired = self.evictions, self.expirations
            super().store(document, features)
            evicted, expired = self.evictions - evicted, self.expirations - expired
        _publish({"evictions": evicted, "expirations": expired})

    def clear(self, preserve_stats: bool = False) -> None:
        """Drop every entry; ``preserve_stats=True`` keeps the cumulative
        counters (long-running services clear entries to release memory
        without losing their lifetime totals)."""
        with self._lock:
            super().clear()
            if not preserve_stats:
                self.hits = self.misses = self.evictions = self.expirations = 0

    def info(self) -> Dict[str, int]:
        """Counters for tests and the profiling report."""
        with self._lock:
            expired = self.expirations
            info = {
                "size": super().__len__(),  # purges first
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expired": self.expirations,
                "hit_rate": self.hit_rate,
                "maxsize": self.maxsize,
            }
        _publish({"expirations": info["expired"] - expired})
        return info

    def export_metrics(self, registry) -> None:
        """Publish the lifetime counters as gauges on ``registry`` (the
        session counters above only cover calls made while it was active)."""
        info = self.info()
        for key in ("size", "hit_rate"):
            registry.gauge(f"feature_cache.{key}").set(info[key])
        for key in ("hits", "misses", "evictions", "expired"):
            registry.gauge(f"feature_cache.total_{key}").set(info[key])


def _publish(counts: Dict[str, int], hit_rate: Optional[float] = None) -> None:
    """Add ``counts`` to the session's ``feature_cache.*`` counters and set
    the hit-rate gauge (called with no cache lock held)."""
    telemetry = obs.get_telemetry()
    if telemetry is None:
        return
    for name, count in counts.items():
        if count:
            telemetry.metrics.counter(f"feature_cache.{name}").inc(count)
    if hit_rate is not None:
        telemetry.metrics.gauge("feature_cache.hit_rate").set(hit_rate)


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
