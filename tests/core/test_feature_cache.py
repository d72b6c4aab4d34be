"""FeatureCache process discipline: per-process entries, fork guard.

The cache keys on ``id(document)``, which is only meaningful inside one
process, so a cache is never shipped across a process boundary, and a
module-level ``os.register_at_fork`` guard clears any live cache in a
forked child so stale identity keys can never alias a new object at a
recycled address.
"""

import os

import numpy as np
import pytest

from repro import obs
from repro.core.featurize import _clear_caches_after_fork, FeatureCache, Featurizer


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
