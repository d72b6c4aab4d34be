"""Span tracing: nested wall-time regions with parent links and attributes.

A :class:`Span` is one timed region — monotonic-clock start/duration, a
globally unique id, the id of the enclosing span (``parent_id``), free-form
attributes, and an ``ok``/``error`` status recorded even when the region
unwinds through an exception.

The *current* span is tracked per execution context (the same
``contextvars`` discipline as :func:`repro.nn.no_grad`), so concurrent
threads or asyncio tasks each build their own correctly-nested span stack
while appending to one shared :class:`Tracer`.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import wraps
from typing import Callable, Dict, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "current_span",
    "enable_span_thread_tracking",
    "disable_span_thread_tracking",
    "span_stacks_snapshot",
    "enable_span_ring",
    "disable_span_ring",
    "span_ring_snapshot",
]

#: Globally unique span ids — shared across tracers so parent links remain
#: unambiguous even when a private tracer (e.g. a benchmark's stage timer)
#: nests around spans of the installed telemetry session.
_SPAN_IDS = itertools.count(1)

#: The innermost open span of the current execution context.
_CURRENT_SPAN: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)

#: Cross-thread span visibility for the sampling profiler.  A ContextVar
#: is only readable from its own execution context, so when a profiler is
#: active every span enter/exit *additionally* maintains this thread-id →
#: open-span-stack map.  The feature is reference-counted and off by
#: default: the disabled cost at every span boundary is a single module
#: global truthiness check (``if _TRACKING:``), preserving the obs
#: fast-path discipline.
_THREAD_STACKS: Dict[int, List["Span"]] = {}
_TRACKING = False
_TRACKING_COUNT = 0
_TRACKING_LOCK = threading.Lock()


def enable_span_thread_tracking() -> None:
    """Start mirroring every context's span stack into a thread-id map.

    Reference-counted: each profiler (parent and nested) enables on start
    and disables on stop; tracking stays on until the last one leaves.
    """
    global _TRACKING, _TRACKING_COUNT
    with _TRACKING_LOCK:
        _TRACKING_COUNT += 1
        _TRACKING = True


def disable_span_thread_tracking() -> None:
    """Drop one tracking reference; clears the map when none remain."""
    global _TRACKING, _TRACKING_COUNT
    with _TRACKING_LOCK:
        _TRACKING_COUNT = max(0, _TRACKING_COUNT - 1)
        if _TRACKING_COUNT == 0:
            _TRACKING = False
            _THREAD_STACKS.clear()


#: Bounded ring of recently *completed* spans, feeding the telemetry
#: server's ``GET /trace`` endpoint.  Same discipline as the profiler's
#: thread-stack map: off by default, reference-counted, and the disabled
#: cost at every span finish is one module-global ``is None`` check.
#: ``deque.append`` with a maxlen is atomic under the GIL, so writers
#: never take a lock.
_SPAN_RING: Optional["deque"] = None
_RING_COUNT = 0
_RING_LOCK = threading.Lock()


def enable_span_ring(capacity: int = 256) -> None:
    """Start retaining the last ``capacity`` finished spans in memory.

    Reference-counted like the thread-stack tracking: each telemetry
    server enables on start and disables on stop; the first enabler's
    capacity wins while any reference remains.
    """
    global _SPAN_RING, _RING_COUNT
    if capacity <= 0:
        raise ValueError("span ring capacity must be positive")
    with _RING_LOCK:
        _RING_COUNT += 1
        if _SPAN_RING is None:
            _SPAN_RING = deque(maxlen=int(capacity))


def disable_span_ring() -> None:
    """Drop one ring reference; frees the buffer when none remain."""
    global _SPAN_RING, _RING_COUNT
    with _RING_LOCK:
        _RING_COUNT = max(0, _RING_COUNT - 1)
        if _RING_COUNT == 0:
            _SPAN_RING = None


def span_ring_snapshot(limit: Optional[int] = None) -> List["Span"]:
    """The most recent completed spans, oldest first (empty when off)."""
    ring = _SPAN_RING
    if ring is None:
        return []
    spans = list(ring)
    if limit is not None and limit >= 0:
        spans = spans[-limit:]
    return spans


def span_stacks_snapshot() -> Dict[int, List["Span"]]:
    """Copy of each thread's open span stack (outermost first).

    Only meaningful while tracking is enabled; the copies are taken
    per-thread-list (atomic under the GIL) so the sampler never observes
    a half-mutated stack.
    """
    return {
        ident: list(stack)
        for ident, stack in list(_THREAD_STACKS.items())
        if stack
    }


@dataclass
class Span:
    """One finished (or in-flight) traced region."""

    name: str
    span_id: int
    parent_id: Optional[int]
    started: float                       # perf_counter at entry
    started_at: float                    # wall-clock epoch seconds at entry
    duration: Optional[float] = None     # seconds; None while in flight
    status: str = "ok"                   # "ok" | "error"
    error: Optional[str] = None          # exception type name when status=error
    attributes: Dict[str, object] = field(default_factory=dict)

    def set_attribute(self, key: str, value: object) -> None:
        """Attach/overwrite one attribute on the span."""
        self.attributes[key] = value

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (used by the run-log ``span`` event)."""
        record: Dict[str, object] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "started_at": self.started_at,
            "duration": self.duration,
            "status": self.status,
        }
        if self.error is not None:
            record["error"] = self.error
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        return record


class _SpanContext:
    """The context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", name: str, attributes: Dict[str, object]):
        self._tracer = tracer
        self._span = Span(
            name=name,
            span_id=next(_SPAN_IDS),
            parent_id=None,
            started=0.0,
            started_at=0.0,
            attributes=attributes,
        )
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Span:
        span = self._span
        parent = _CURRENT_SPAN.get()
        span.parent_id = parent.span_id if parent is not None else None
        self._token = _CURRENT_SPAN.set(span)
        if _TRACKING:
            _THREAD_STACKS.setdefault(threading.get_ident(), []).append(span)
        span.started_at = time.time()
        span.started = time.perf_counter()
        return span

    def __exit__(self, exc_type, exc, tb) -> None:
        span = self._span
        span.duration = time.perf_counter() - span.started
        if exc_type is not None:
            span.status = "error"
            span.error = exc_type.__name__
        _CURRENT_SPAN.reset(self._token)
        if _TRACKING:
            stack = _THREAD_STACKS.get(threading.get_ident())
            if stack:
                if stack[-1] is span:
                    stack.pop()
                else:
                    # Tracking switched on mid-flight: this span was never
                    # pushed (or an inner one outlived it) — remove by
                    # identity so the stack never misattributes samples.
                    for index in range(len(stack) - 1, -1, -1):
                        if stack[index] is span:
                            del stack[index]
                            break
        self._tracer._record(span)


class Tracer:
    """Collects finished spans; spans nest via the context-local stack.

    ``on_finish`` (optional) is invoked with each completed span — the
    telemetry session uses it to stream ``span`` events into the run log.
    """

    def __init__(self, on_finish: Optional[Callable[[Span], None]] = None):
        self._lock = threading.Lock()
        self._finished: List[Span] = []
        self.on_finish = on_finish

    # ------------------------------------------------------------------
    def span(self, name: str, attributes: Optional[Dict[str, object]] = None,
             **attrs) -> _SpanContext:
        """Open a traced region: ``with tracer.span("encode") as span: ...``.

        Keyword arguments become span attributes; ``attributes`` merges
        beneath them.  The yielded :class:`Span` accepts further
        :meth:`Span.set_attribute` calls inside the block.
        """
        merged = dict(attributes) if attributes else {}
        merged.update(attrs)
        return _SpanContext(self, name, merged)

    def traced(self, name: Optional[str] = None) -> Callable:
        """Decorator wrapping every call of ``fn`` in a span.

        The span is named after the function (``fn.__qualname__``) unless
        ``name`` is given.
        """

        def decorate(fn: Callable) -> Callable:
            span_name = name or fn.__qualname__

            @wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(span_name):
                    return fn(*args, **kwargs)

            return wrapper

        return decorate

    def _record(self, span: Span) -> None:
        with self._lock:
            self._finished.append(span)
        if _SPAN_RING is not None:
            _SPAN_RING.append(span)
        if self.on_finish is not None:
            self.on_finish(span)

    # ------------------------------------------------------------------
    def finished(self) -> List[Span]:
        """Completed spans in finish order (inner spans before outer)."""
        with self._lock:
            return list(self._finished)

    def reset(self) -> None:
        """Forget every finished span."""
        with self._lock:
            self._finished.clear()

    def seconds_by_name(self) -> Dict[str, float]:
        """Total duration per span name."""
        totals: Dict[str, float] = {}
        for span in self.finished():
            totals[span.name] = totals.get(span.name, 0.0) + (span.duration or 0.0)
        return totals

    def calls_by_name(self) -> Dict[str, int]:
        """Finish count per span name."""
        counts: Dict[str, int] = {}
        for span in self.finished():
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    def breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-name seconds, call counts, and share of the summed total.

        Fractions are of the *sum over names*, so nested spans each count
        their full (inclusive) duration.
        """
        seconds = self.seconds_by_name()
        calls = self.calls_by_name()
        total = sum(seconds.values())
        return {
            name: {
                "seconds": value,
                "calls": calls[name],
                "fraction": value / total if total > 0 else 0.0,
            }
            for name, value in seconds.items()
        }


def current_span() -> Optional[Span]:
    """The innermost open span of this execution context, if any."""
    return _CURRENT_SPAN.get()
