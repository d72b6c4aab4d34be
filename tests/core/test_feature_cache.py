"""FeatureCache process discipline: per-process entries, fork guard,
and entries that die with their documents.

The cache keys on ``id(document)``, which is only meaningful inside one
process, so a cache is never shipped across a process boundary, and a
module-level ``os.register_at_fork`` guard clears any live cache in a
forked child so stale identity keys can never alias a new object at a
recycled address.  Within a process, an entry lasts only as long as its
document: the next cache call after the document dies drops it.
"""

import gc
import os
import threading

import numpy as np
import pytest

from repro import obs
from repro.core import BlockClassifier, HierarchicalEncoder
from repro.core.featurize import _clear_caches_after_fork, FeatureCache, Featurizer
from repro.corpus import ContentConfig, ResumeGenerator
from repro.ner import NerConfig, NerTagger
from repro.pipeline import ResumeParser


class _Doc:
    """A weak-referenceable stand-in document (``__dict__`` allows cycles)."""


def _recycled(key):
    """A fresh ``_Doc`` allocated at ``id() == key``, or None."""
    candidates = []
    for _ in range(1000):
        candidates.append(_Doc())
        if id(candidates[-1]) == key:
            return candidates[-1]
    return None


class TestPerProcessSemantics:
    def test_identity_keyed_lookup(self, tiny_docs, tokenizer, config):
        featurizer = Featurizer(tokenizer, config)
        doc = tiny_docs[0]
        first = featurizer.featurize(doc)
        assert featurizer.featurize(doc) is first
        assert featurizer.cache.info()["hits"] == 1

    def test_clear_preserve_stats(self, tiny_docs, tokenizer, config):
        featurizer = Featurizer(tokenizer, config)
        featurizer.featurize_many(tiny_docs[:3], repeats=2)
        info = featurizer.cache.info()
        assert info["hits"] == 3 and info["size"] == 3
        featurizer.cache.clear(preserve_stats=True)
        assert len(featurizer.cache) == 0
        assert featurizer.cache.info()["hits"] == 3
        featurizer.cache.clear()
        assert featurizer.cache.info()["hits"] == 0

    def test_featurize_many_rejects_nonpositive_repeats(
        self, tiny_docs, tokenizer, config
    ):
        featurizer = Featurizer(tokenizer, config)
        with pytest.raises(ValueError):
            featurizer.featurize_many(tiny_docs[:1], repeats=0)

    def test_featurize_many_returns_in_order(self, tiny_docs, tokenizer, config):
        featurizer = Featurizer(tokenizer, config)
        features = featurizer.featurize_many(tiny_docs)
        singles = [featurizer.featurize(d) for d in tiny_docs]
        assert all(a is b for a, b in zip(features, singles))


class TestForkGuard:
    def test_fork_hook_clears_live_caches(self, tiny_docs, tokenizer, config):
        featurizer = Featurizer(tokenizer, config)
        featurizer.featurize_many(tiny_docs[:2], repeats=2)
        assert len(featurizer.cache) == 2
        # Simulate what the registered after_in_child hook runs.
        _clear_caches_after_fork()
        assert len(featurizer.cache) == 0
        # Stats survive (lifetime counters keep meaning across the fork).
        assert featurizer.cache.info()["hits"] == 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="fork unavailable")
    def test_forked_child_starts_with_empty_cache(self, tiny_docs, tokenizer, config):
        featurizer = Featurizer(tokenizer, config)
        featurizer.featurize_many(tiny_docs[:2])
        assert len(featurizer.cache) == 2
        pid = os.fork()
        if pid == 0:
            # Child: the registered hook must already have fired.
            os._exit(0 if len(featurizer.cache) == 0 else 17)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        # Parent's cache is untouched.
        assert len(featurizer.cache) == 2


class TestThreadSafety:
    """Concurrent lookup/store against one cache (the serving-tier shape):
    counters must reconcile exactly and the LRU bound must hold —
    regression for the previously lock-free mutation paths."""

    class _Doc:
        __slots__ = ("__weakref__",)

    def test_concurrent_mixed_workload_is_consistent(self):
        import threading

        cache = FeatureCache(maxsize=32)
        documents = [self._Doc() for _ in range(64)]
        lookups_per_thread = 400
        num_threads = 4
        errors = []

        def drive(seed):
            try:
                for step in range(lookups_per_thread):
                    doc = documents[(seed * 31 + step) % len(documents)]
                    if cache.lookup(doc) is None:
                        cache.store(doc, object())
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(seed,))
            for seed in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        info = cache.info()
        # Every lookup is classified exactly once; torn counter updates
        # under the old lock-free paths would break this ledger.
        assert info["hits"] + info["misses"] == num_threads * lookups_per_thread
        assert len(cache) <= cache.maxsize

    def test_fork_guard_replaces_lock(self):
        # The after-fork hook rebinds a fresh lock before clearing:
        # a fork taken while another thread held the lock must not leave
        # the child's cache permanently wedged.
        cache = FeatureCache(maxsize=4)
        stale_lock = cache._lock
        stale_lock.acquire()  # simulate a holder that died with the fork
        try:
            _clear_caches_after_fork()
            assert cache._lock is not stale_lock
            doc = self._Doc()
            cache.store(doc, object())  # must not deadlock
            assert cache.lookup(doc) is not None
        finally:
            stale_lock.release()


class TestHitRateGauges:
    def test_lookup_updates_session_gauge(self, tiny_docs, tokenizer, config):
        with obs.telemetry() as tel:
            featurizer = Featurizer(tokenizer, config)
            featurizer.featurize_many(tiny_docs[:2], repeats=2)
            gauge = tel.metrics.gauge("feature_cache.hit_rate")
            assert gauge.value() == pytest.approx(featurizer.cache.hit_rate)
            assert featurizer.cache.hit_rate == pytest.approx(0.5)

    def test_cache_disabled_when_size_zero(self, tokenizer, config):
        assert Featurizer(tokenizer, config, cache_size=0).cache is None
        with pytest.raises(ValueError):
            FeatureCache(0)


class TestLifecycle:
    """An entry is dropped once its document is garbage-collected."""

    def test_entry_dies_with_its_document(self):
        with obs.telemetry() as tel:
            cache = FeatureCache(maxsize=4)
            kept, doc = _Doc(), _Doc()
            cache.store(kept, "kept")
            cache.store(doc, "doc")
            del doc
            gc.collect()
            assert len(cache) == 1
            assert cache.lookup(kept) == "kept"
            info = cache.info()
            assert (info["expired"], info["evictions"], info["size"]) == (1, 0, 1)
            assert tel.metrics.counter("feature_cache.expirations").value() == 1
            cache.export_metrics(tel.metrics)
            assert tel.metrics.gauge("feature_cache.total_expired").value() == 1
        cache.clear()
        assert cache.info()["expired"] == 0

    def test_recycled_id_keeps_the_live_entry(self):
        cache = FeatureCache(maxsize=4)
        dead = _Doc()
        key = id(dead)
        cache.store(dead, "dead")
        stale_ref = cache._entries[key][0]
        del dead  # queued, not yet purged
        live = _recycled(key)
        if live is None:
            pytest.skip("allocator did not reuse the address")
        assert cache.lookup(live) is None  # never served the dead bundle
        cache.store(live, "live")
        # A late notification for the dead reference must not drop the
        # entry that now lives at the same key.
        cache._pending.append(stale_ref)
        assert len(cache) == 1
        assert cache.lookup(live) == "live"
        assert cache.info()["expired"] == 1

    def test_cycle_collected_inside_store_does_not_deadlock(self):
        class CollectOnRelease:
            # Evicted under the store lock: its finaliser runs a GC pass
            # there, which collects the cyclic document below.
            def __del__(self):
                gc.collect()

        cache = FeatureCache(maxsize=2)
        holder, cyclic, newcomer = _Doc(), _Doc(), _Doc()
        cyclic.loop = cyclic
        gc.disable()
        try:
            cache.store(holder, CollectOnRelease())
            cache.store(cyclic, "cyclic")
            del cyclic
            worker = threading.Thread(
                target=cache.store, args=(newcomer, "newcomer"), daemon=True
            )
            worker.start()
            worker.join(timeout=30)
        finally:
            gc.enable()
        assert not worker.is_alive(), "store deadlocked on a GC-time callback"
        assert len(cache) == 1
        info = cache.info()
        assert (info["evictions"], info["expired"]) == (1, 1)
        assert cache.lookup(newcomer) == "newcomer"

    def test_fork_guard_clears_pending_references(self):
        cache = FeatureCache(maxsize=4)
        doc = _Doc()
        cache.store(doc, "doc")
        del doc
        assert len(cache._pending) == 1
        _clear_caches_after_fork()
        assert cache._pending == []
        assert len(cache) == 0

    def test_parse_stream_keeps_only_live_documents(self, tokenizer, config):
        featurizer = Featurizer(tokenizer, config)
        classifier = BlockClassifier(
            HierarchicalEncoder(config, rng=np.random.default_rng(1)),
            featurizer, lstm_hidden=16, rng=np.random.default_rng(2),
        )
        tagger = NerTagger(
            NerConfig(vocab_size=len(tokenizer.vocab), hidden_dim=32, layers=1,
                      heads=2, lstm_hidden=16, dropout=0.0),
            tokenizer, rng=np.random.default_rng(3),
        )
        parser = ResumeParser(classifier, tagger)
        generator = ResumeGenerator(seed=31, content_config=ContentConfig.tiny())
        for index in range(30):
            parser.parse(generator.generate_at(index))
        assert len(featurizer.cache) <= 1
        assert featurizer.cache.info()["expired"] >= 29
