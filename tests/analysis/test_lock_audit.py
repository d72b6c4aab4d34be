"""The runtime lock-order sanitizer: seeded inversions must produce a
cycle, disciplined code must not, and the factory patch must scope and
restore cleanly."""

import threading
import time

from repro.analysis.lock_audit import (
    InstrumentedLock,
    LockAudit,
    _module_matches,
    audit_locks,
)


def make_locks(audit, *sites):
    return [InstrumentedLock(threading.Lock(), site, audit) for site in sites]


class TestOrderGraph:
    def test_seeded_inversion_detected(self):
        """Two locks taken in both orders on two threads: the canonical
        deadlock shape the sanitizer exists to catch."""
        audit = LockAudit()
        a, b = make_locks(audit, "mod.alpha:1", "mod.beta:2")

        def forward():
            with a:
                with b:
                    pass

        def backward():
            with b:
                with a:
                    pass

        for target in (forward, backward):
            thread = threading.Thread(target=target)
            thread.start()
            thread.join()

        report = audit.report()
        assert not report["ok"]
        assert len(report["cycles"]) == 1
        cycle = report["cycles"][0]
        assert cycle["sites"] == ["mod.alpha:1", "mod.beta:2"]
        assert set(cycle["edges"]) == {
            "mod.alpha:1 -> mod.beta:2",
            "mod.beta:2 -> mod.alpha:1",
        }
        for info in cycle["edges"].values():
            assert info["stack"]  # evidence for the report

    def test_consistent_order_clean(self):
        audit = LockAudit()
        a, b = make_locks(audit, "mod.alpha:1", "mod.beta:2")
        for _ in range(3):
            with a:
                with b:
                    pass
        report = audit.report()
        assert report["ok"] and report["cycles"] == []
        assert report["edges"]["mod.alpha:1 -> mod.beta:2"]["count"] == 3

    def test_three_site_cycle_detected(self):
        audit = LockAudit()
        a, b, c = make_locks(audit, "m.a:1", "m.b:2", "m.c:3")
        for first, second in ((a, b), (b, c), (c, a)):
            with first:
                with second:
                    pass
        cycles = audit.cycles()
        assert len(cycles) == 1
        assert cycles[0]["sites"] == ["m.a:1", "m.b:2", "m.c:3"]

    def test_same_site_nesting_not_a_cycle(self):
        # Two instances born at one line (per-metric locks): ordering
        # between them is data-dependent, tracked but never a cycle.
        audit = LockAudit()
        a, b = make_locks(audit, "mod.metric:61", "mod.metric:61")
        with a:
            with b:
                pass
        report = audit.report()
        assert report["ok"]
        assert report["same_site_nestings"]

    def test_rlock_reentry_makes_no_edge(self):
        audit = LockAudit()
        lock = InstrumentedLock(threading.RLock(), "mod.r:9", audit)
        with lock:
            with lock:
                pass
        report = audit.report()
        assert report["edges"] == {} and report["ok"]

    def test_failed_acquire_makes_no_edge(self):
        audit = LockAudit()
        a, b = make_locks(audit, "m.a:1", "m.b:2")
        held = threading.Event()
        done = threading.Event()

        def hold_b():
            with b:
                held.set()
                done.wait(timeout=5.0)

        holder = threading.Thread(target=hold_b)
        holder.start()
        held.wait(timeout=5.0)
        with a:
            assert b.acquire(blocking=False) is False
        done.set()
        holder.join()
        assert audit.report()["edges"] == {}


class TestHazards:
    def test_long_hold_recorded(self):
        audit = LockAudit(long_hold_seconds=0.01)
        (lock,) = make_locks(audit, "mod.slow:5")
        with lock:
            time.sleep(0.03)
        holds = audit.report()["long_holds"]
        assert holds and holds[0]["site"] == "mod.slow:5"
        assert holds[0]["seconds"] >= 0.01


class TestFactoryPatch:
    def test_module_filter(self):
        assert _module_matches("repro.obs.metrics", ("repro",))
        assert _module_matches("tests.obs.test_alerts", ("tests",))
        assert _module_matches("test_alerts", ("test_",))
        assert not _module_matches("multiprocessing.queues", ("repro",))
        assert not _module_matches("reproduce.other", ("repro",))

    def test_patch_instruments_matching_modules_only(self):
        with audit_locks(modules=("tests", "test_")) as audit:
            instrumented = threading.Lock()
            assert isinstance(instrumented, InstrumentedLock)
        with audit_locks(modules=("no_such_module",)):
            plain = threading.Lock()
            assert not isinstance(plain, InstrumentedLock)
        assert audit.report()["locks_created"] == 1

    def test_factories_restored_after_exit(self):
        real_lock, real_rlock = threading.Lock, threading.RLock
        with audit_locks():
            assert threading.Lock is not real_lock
        assert threading.Lock is real_lock
        assert threading.RLock is real_rlock

    def test_wrapper_is_context_manager_with_locked(self):
        with audit_locks(modules=("tests", "test_")):
            lock = threading.Lock()
        assert lock.locked() is False
        with lock:
            assert lock.locked() is True
        assert lock.locked() is False

    def test_rlock_locked_fallback(self):
        audit = LockAudit()
        lock = InstrumentedLock(threading.RLock(), "m.r:1", audit)
        assert lock.locked() is False
        with lock:
            assert lock.locked() is True


class TestObsIntegration:
    def test_metrics_workload_has_no_cycles(self):
        """The CI contract in miniature: a threaded telemetry workload
        under the audit must come back acyclic."""
        with audit_locks() as audit:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()

            def drive():
                for step in range(50):
                    registry.counter("steps").inc()
                    registry.gauge("loss").set(float(step))
                    registry.histogram("latency").observe(step * 0.001)

            threads = [threading.Thread(target=drive) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            snapshot = registry.snapshot()

        report = audit.report()
        assert report["ok"], report["cycles"]
        assert report["locks_created"] > 0
        assert report["acquisitions"] > 0
        assert snapshot["steps"]["series"][0]["value"] == 200.0
