"""No-op fast path: instrumentation must cost ~nothing without a session.

The contract every hot path relies on: with no telemetry installed,
``obs.trace`` returns a shared null context and metric guards reduce to a
single ``ContextVar.get``.  The timing guard is deliberately generous —
it pins the *order of magnitude* (sub-microsecond-class per call), not a
machine-specific constant, so it stays green on noisy CI runners while
still catching an accidental always-on slow path (span allocation, dict
churn, lock acquisition) which would blow past it by 10-100x.
"""

import time

from repro import obs


def _best_of(rounds, fn):
    """Minimum wall time over ``rounds`` runs (noise only inflates)."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


class TestNoOpPath:
    def test_trace_returns_shared_null_context(self):
        assert obs.get_telemetry() is None
        first = obs.trace("anything", batch=16)
        second = obs.trace("something_else")
        assert first is second  # the reusable singleton, no allocation

    def test_trace_is_noop_inside(self):
        with obs.trace("stage") as span:
            assert span is None  # nullcontext yields None
        assert obs.current_span() is None

    def test_trace_overhead_is_negligible(self):
        calls = 20_000

        def instrumented():
            for _ in range(calls):
                with obs.trace("hot"):
                    pass

        # Generous ceiling: 5µs per no-op trace call, ~10x headroom over
        # the observed cost of ContextVar.get + nullcontext enter/exit.
        best = _best_of(5, instrumented)
        per_call = best / calls
        assert per_call < 5e-6, (
            f"no-op trace costs {per_call * 1e6:.2f}µs/call; the fast path "
            "is no longer a fast path"
        )

    def test_guarded_metric_write_overhead_is_negligible(self):
        calls = 20_000

        def guarded():
            for _ in range(calls):
                tel = obs.get_telemetry()
                if tel is not None:  # pragma: no cover - session is off
                    tel.metrics.counter("x").inc()

        best = _best_of(5, guarded)
        per_call = best / calls
        assert per_call < 2e-6, (
            f"telemetry guard costs {per_call * 1e6:.2f}µs/call"
        )

    def test_overhead_scales_like_a_plain_context_manager(self):
        """The no-op trace must stay within a small factor of the cheapest
        possible python context manager — catching an accidental span
        allocation on the disabled path."""
        import contextlib

        calls = 20_000
        reference = contextlib.nullcontext()

        def bare():
            for _ in range(calls):
                with reference:
                    pass

        def instrumented():
            for _ in range(calls):
                with obs.trace("hot"):
                    pass

        bare_best = _best_of(5, bare)
        instrumented_best = _best_of(5, instrumented)
        # trace() adds one ContextVar.get + a None check + a function call
        # on top of the bare null context; 20x covers interpreter jitter.
        assert instrumented_best < bare_best * 20 + 1e-3
