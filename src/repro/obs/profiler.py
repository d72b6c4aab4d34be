"""Continuous sampling profiler: collapsed stacks with span attribution.

A :class:`Profiler` runs a daemon thread that samples every live thread's
Python stack via ``sys._current_frames()`` at a configurable rate and
aggregates three views of where wall-clock time goes:

* **collapsed stacks** — ``module:function;module:function;...`` strings
  (root first, flamegraph.pl input format) counted per thread;
* **hot functions** — leaf-frame *self-time* sample counts, the
  below-span-granularity breakdown the span tracer cannot see;
* **span self-time** — each sample is attributed to the innermost open
  :class:`~repro.obs.tracing.Span` of the sampled thread (via the
  thread-tracking registry the profiler switches on in
  :mod:`repro.obs.tracing`), so a span like ``encode`` gains a
  "how much of it was *this* frame actually on-CPU" decomposition.

Alongside stacks the sampler tracks memory watermarks: peak RSS (read
from ``/proc/self/statm`` where available) and, when :mod:`tracemalloc`
is already tracing, traced-heap peaks — both globally and per *top-level*
span (the root of the sampled thread's open-span stack).

Aggregates flush as ``profile`` events into the active
:class:`~repro.obs.runlog.RunLogger` stream (periodically plus once at
stop), each carrying a bounded, merge-safe *delta* since the previous
flush — ``repro.obs.report --profile`` sums them back together.

Discipline: stack identity lives **only** in event payloads.  The sole
metric the profiler touches is ``profiler.samples{thread=...}`` — bounded
label cardinality, per lint rule RN012.

When no profiler is constructed nothing here runs: span enter/exit pay
one module-global truthiness check and every other obs fast path is
untouched.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import tracemalloc
from typing import Dict, List, Optional, Tuple

from . import tracing

__all__ = ["Profiler", "DEFAULT_PROFILE_HZ", "collapse_frame"]

#: Default sampling rate (samples per second, per process).  Chosen low
#: enough that a numpy-substrate training step regresses well under 5%
#: (the BENCH acceptance envelope) and deliberately *not* a divisor of
#: common timer frequencies so the sampler does not phase-lock with
#: periodic work.
DEFAULT_PROFILE_HZ = 67.0

_PAGE_SIZE = 4096
try:  # pragma: no cover - resource is POSIX-only
    import resource

    _PAGE_SIZE = resource.getpagesize()
except Exception:  # pragma: no cover - non-POSIX fallback
    pass


def _read_rss_bytes() -> Optional[int]:
    """Current resident set size, or None where /proc is unavailable."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        return None


def collapse_frame(frame, max_depth: int = 64) -> Tuple[str, str]:
    """(collapsed stack root-first, leaf function) for one sampled frame.

    Frames render as ``module:function``; stacks deeper than ``max_depth``
    keep their *leaf-most* frames (the hot end) behind a ``...`` marker.
    """
    parts: List[str] = []
    while frame is not None and len(parts) < max_depth:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "?")
        parts.append(f"{module}:{code.co_name}")
        frame = frame.f_back
    if frame is not None:
        parts.append("...")
    parts.reverse()
    return ";".join(parts), parts[-1] if parts[-1] != "..." else parts[-2]


class Profiler:
    """Background stack sampler with span attribution and memory watermarks.

    Standalone use (aggregate only, e.g. to embed in a benchmark report)::

        profiler = Profiler(hz=67)
        profiler.start()
        ...                      # workload
        profiler.stop()
        report["profile"] = profiler.summary()

    Session use — let :func:`repro.obs.telemetry` drive the lifecycle::

        with obs.telemetry(run_log="run.jsonl", profile_hz=67):
            ...                  # profile events stream into the log

    The sampler thread is a daemon and never holds its aggregation lock
    while sleeping; ``stop()`` is idempotent and flushes the final delta.
    """

    def __init__(
        self,
        hz: float = DEFAULT_PROFILE_HZ,
        max_stack_depth: int = 64,
        max_stacks_per_flush: int = 200,
        flush_interval: float = 10.0,
        track_memory: bool = True,
    ):
        if hz <= 0:
            raise ValueError("profile hz must be positive")
        self.hz = float(hz)
        self.max_stack_depth = int(max_stack_depth)
        self.max_stacks_per_flush = int(max_stacks_per_flush)
        self.flush_interval = float(flush_interval)
        self.track_memory = bool(track_memory)
        self._interval = 1.0 / self.hz
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._session = None
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None
        # Pending (since last flush) and total (since start) aggregates.
        self._pending_stacks: Dict[Tuple[str, str], int] = {}
        self._pending_functions: Dict[str, int] = {}
        self._pending_spans: Dict[str, int] = {}
        self._pending_samples_by_thread: Dict[str, int] = {}
        self._total_stacks: Dict[Tuple[str, str], int] = {}
        self._total_functions: Dict[str, int] = {}
        self._total_spans: Dict[str, int] = {}
        self._total_samples = 0
        self._flushed_samples = 0
        # Memory watermarks (cumulative; reported whole on every flush).
        self._peak_rss: Optional[int] = None
        self._peak_traced: Optional[int] = None
        self._span_peak_rss: Dict[str, int] = {}
        self._span_peak_traced: Dict[str, int] = {}

    # -- wiring ---------------------------------------------------------
    def bind(self, session) -> None:
        """Attach the telemetry session receiving flush events/metrics."""
        self._session = session

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Launch the sampler thread (idempotent while running)."""
        if self.running:
            return
        tracing.enable_span_thread_tracking()
        with self._lock:
            self._stop_event.clear()
            self._started_at = time.perf_counter()
            self._stopped_at = None
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling, join the thread, and flush the final delta."""
        thread = self._thread
        if thread is None:
            return
        self._stop_event.set()
        thread.join(timeout=max(5.0, 10.0 * self._interval))
        self._thread = None
        self._stopped_at = time.perf_counter()
        tracing.disable_span_thread_tracking()
        self.flush()

    # -- sampling loop --------------------------------------------------
    def _run(self) -> None:
        next_flush = time.perf_counter() + self.flush_interval
        while not self._stop_event.wait(self._interval):
            try:
                self._sample()
            except Exception:
                # A torn frame walk (thread exiting mid-sample) must never
                # kill the sampler; the sample is simply dropped.
                continue
            if time.perf_counter() >= next_flush:
                self.flush()
                next_flush = time.perf_counter() + self.flush_interval

    def _sample(self) -> None:
        own_ident = threading.get_ident()
        # Everything that may release the GIL (the statm read, lock waits)
        # runs before the frame snapshot, and the frames are walked at once:
        # a frame whose generator finishes in between loses its f_back and
        # would be recorded as a truncated one-frame stack.
        rss = _read_rss_bytes() if self.track_memory else None
        traced = (
            tracemalloc.get_traced_memory()[0]
            if self.track_memory and tracemalloc.is_tracing()
            else None
        )
        names = {t.ident: t.name for t in threading.enumerate()}
        stacks = tracing.span_stacks_snapshot()
        sampled = [
            (ident, collapse_frame(frame, self.max_stack_depth))
            for ident, frame in sys._current_frames().items()
            if ident != own_ident
        ]
        with self._lock:
            for ident, (collapsed, leaf) in sampled:
                thread_name = names.get(ident, f"thread-{ident}")
                key = (thread_name, collapsed)
                self._pending_stacks[key] = self._pending_stacks.get(key, 0) + 1
                self._pending_functions[leaf] = (
                    self._pending_functions.get(leaf, 0) + 1
                )
                self._pending_samples_by_thread[thread_name] = (
                    self._pending_samples_by_thread.get(thread_name, 0) + 1
                )
                self._total_samples += 1
                span_stack = stacks.get(ident)
                if span_stack:
                    innermost = span_stack[-1].name
                    self._pending_spans[innermost] = (
                        self._pending_spans.get(innermost, 0) + 1
                    )
                    root = span_stack[0].name
                    if rss is not None:
                        self._span_peak_rss[root] = max(
                            self._span_peak_rss.get(root, 0), rss
                        )
                    if traced is not None:
                        self._span_peak_traced[root] = max(
                            self._span_peak_traced.get(root, 0), traced
                        )
            if rss is not None:
                self._peak_rss = max(self._peak_rss or 0, rss)
            if traced is not None:
                self._peak_traced = max(self._peak_traced or 0, traced)

    # -- flushing / reporting -------------------------------------------
    def flush(self) -> Optional[Dict[str, object]]:
        """Fold pending samples into the totals and emit a ``profile`` event.

        Returns the emitted payload (None when nothing was pending).  The
        payload carries the *delta* since the previous flush, so summing
        ``profile`` events reconstructs the totals exactly.  Stacks are capped at
        ``max_stacks_per_flush`` by count; the cap is reported in
        ``stacks_dropped`` rather than silently applied.
        """
        with self._lock:
            if not self._pending_stacks and not self._pending_samples_by_thread:
                return None
            pending_stacks = self._pending_stacks
            pending_functions = self._pending_functions
            pending_spans = self._pending_spans
            by_thread = self._pending_samples_by_thread
            self._pending_stacks = {}
            self._pending_functions = {}
            self._pending_spans = {}
            self._pending_samples_by_thread = {}
            for key, count in pending_stacks.items():
                self._total_stacks[key] = self._total_stacks.get(key, 0) + count
            for name, count in pending_functions.items():
                self._total_functions[name] = (
                    self._total_functions.get(name, 0) + count
                )
            for name, count in pending_spans.items():
                self._total_spans[name] = self._total_spans.get(name, 0) + count
            delta_samples = self._total_samples - self._flushed_samples
            self._flushed_samples = self._total_samples
            memory = self._memory_summary_locked()

        ranked = sorted(
            pending_stacks.items(), key=lambda item: (-item[1], item[0])
        )
        kept = ranked[: self.max_stacks_per_flush]
        payload: Dict[str, object] = {
            "hz": self.hz,
            "samples": delta_samples,
            "stacks": [
                {"thread": thread, "stack": stack, "count": count}
                for (thread, stack), count in kept
            ],
            "stacks_dropped": len(ranked) - len(kept),
            "functions": [
                {"function": name, "samples": count}
                for name, count in sorted(
                    pending_functions.items(), key=lambda item: (-item[1], item[0])
                )
            ],
            "spans": [
                {"span": name, "samples": count}
                for name, count in sorted(
                    pending_spans.items(), key=lambda item: (-item[1], item[0])
                )
            ],
            "memory": memory,
        }
        session = self._session
        if session is not None:
            session.event("profile", **payload)
            counter = session.metrics.counter(
                "profiler.samples", help="stack samples taken by the profiler"
            )
            for thread_name, count in by_thread.items():
                counter.inc(count, thread=thread_name)
        return payload

    def _memory_summary_locked(self) -> Dict[str, object]:
        memory: Dict[str, object] = {}
        if self._peak_rss is not None:
            memory["peak_rss_bytes"] = self._peak_rss
        if self._peak_traced is not None:
            memory["tracemalloc_peak_bytes"] = self._peak_traced
        if self._span_peak_rss:
            memory["span_peak_rss_bytes"] = dict(self._span_peak_rss)
        if self._span_peak_traced:
            memory["span_tracemalloc_peak_bytes"] = dict(self._span_peak_traced)
        return memory

    def summary(self, top_n: int = 20) -> Dict[str, object]:
        """Cumulative JSON-ready aggregate (pending samples included).

        The shape the benchmark suites embed: hot functions and span
        self-time with sample counts *and* estimated seconds
        (``samples / hz``), the top collapsed stacks, and the memory
        watermarks.
        """
        with self._lock:
            functions = dict(self._total_functions)
            for name, count in self._pending_functions.items():
                functions[name] = functions.get(name, 0) + count
            spans = dict(self._total_spans)
            for name, count in self._pending_spans.items():
                spans[name] = spans.get(name, 0) + count
            stacks = dict(self._total_stacks)
            for key, count in self._pending_stacks.items():
                stacks[key] = stacks.get(key, 0) + count
            samples = self._total_samples
            memory = self._memory_summary_locked()
        seconds = 1.0 / self.hz
        ended = self._stopped_at or time.perf_counter()
        return {
            "hz": self.hz,
            "samples": samples,
            "wall_seconds": (
                ended - self._started_at if self._started_at is not None else 0.0
            ),
            "hot_functions": [
                {
                    "function": name,
                    "samples": count,
                    "seconds": count * seconds,
                    "share": count / samples if samples else 0.0,
                }
                for name, count in sorted(
                    functions.items(), key=lambda item: (-item[1], item[0])
                )[:top_n]
            ],
            "span_self_time": {
                name: {"samples": count, "seconds": count * seconds}
                for name, count in sorted(
                    spans.items(), key=lambda item: (-item[1], item[0])
                )
            },
            "stacks": [
                {"thread": thread, "stack": stack, "count": count}
                for (thread, stack), count in sorted(
                    stacks.items(), key=lambda item: (-item[1], item[0])
                )[:top_n]
            ],
            "memory": memory,
        }
