"""``repro.obs`` — dependency-free observability: metrics, spans, run logs.

Three pillars, bundled into a :class:`Telemetry` session:

* :class:`MetricsRegistry` — labeled :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` / :class:`Timer` series with snapshot/reset semantics.
* :class:`Tracer` — nested wall-time spans (monotonic clock, parent ids,
  attributes, exception-safe) plus the :func:`trace` context manager and
  :func:`traced` decorator.
* :class:`RunLogger` — structured JSONL event stream (``run_start`` /
  ``step`` / ``epoch`` / ``eval`` / ``span`` / ``metric_snapshot`` /
  ``run_end``) rendered by :mod:`repro.obs.report`.

The **active session** is per execution context (the same ``contextvars``
discipline as :func:`repro.nn.no_grad`): installing telemetry on one
thread never redirects another thread's instrumentation.  When *no*
session is installed every instrumentation point collapses to a single
``ContextVar.get`` — hot paths stay hot (the no-op guard test pins this).

Instrumenting code::

    from repro import obs

    with obs.trace("encode", batch=8):         # no-op without a session
        ...
    tel = obs.get_telemetry()
    if tel is not None:                        # guard metric writes
        tel.metrics.counter("cache.hits").inc()

Running with telemetry::

    with obs.telemetry(run_log="run.jsonl", config=vars(cfg),
                       seeds={"trainer": 0}) as tel:
        trainer.fit(train, validation)
        model.predict_batch(documents)
    # run.jsonl now holds the full event stream; render it with
    #   python -m repro.obs.report run.jsonl
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Dict, Iterator, Optional, Union

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)
from .profiler import DEFAULT_PROFILE_HZ, Profiler
from .runlog import RunLogger, read_run_log, tail_events, write_json
from .tracing import Span, Tracer, current_span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "Span",
    "Tracer",
    "current_span",
    "RunLogger",
    "read_run_log",
    "tail_events",
    "write_json",
    "Profiler",
    "DEFAULT_PROFILE_HZ",
    "Telemetry",
    "telemetry",
    "use_telemetry",
    "get_telemetry",
    "trace",
    "traced",
]


class Telemetry:
    """One observability session: a registry, a tracer, an optional run log.

    The tracer streams every finished span into the run logger (when one
    is attached), so a single JSONL file carries the full story of a run.

    ``profiler`` attaches a :class:`Profiler` whose flushes stream
    ``profile`` events into the run log; its start/stop lifecycle belongs
    to the caller (:func:`telemetry` drives it when given ``profile_hz``).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        run_logger: Optional[RunLogger] = None,
        profiler: Optional[Profiler] = None,
    ):
        self.metrics = registry or MetricsRegistry()
        self.run_logger = run_logger
        self.profiler = profiler
        if profiler is not None:
            profiler.bind(self)
        self.tracer = Tracer(on_finish=self._on_span)

    def _on_span(self, span: Span) -> None:
        if self.run_logger is not None:
            self.run_logger.span(span)

    def event(self, kind: str, **fields) -> None:
        """Forward an event to the run logger."""
        if self.run_logger is not None:
            self.run_logger.event(kind, **fields)

    def summary(self) -> Dict[str, object]:
        """JSON-ready session summary: span breakdown + metric snapshot.

        The benchmark suites embed this in their ``BENCH_*.json`` reports.
        """
        summary: Dict[str, object] = {
            "spans": self.tracer.breakdown(),
            "metrics": self.metrics.snapshot(),
        }
        if self.profiler is not None:
            summary["profile"] = self.profiler.summary()
        return summary


#: The active telemetry session of the current execution context.  Default
#: None — the state every instrumentation point fast-paths on.
_ACTIVE: contextvars.ContextVar[Optional[Telemetry]] = contextvars.ContextVar(
    "repro_obs_telemetry", default=None
)

#: Reusable null context returned by :func:`trace` when no session is
#: installed (one shared instance; ``nullcontext`` is re-entrant).
_NULL_CONTEXT = contextlib.nullcontext()


def get_telemetry() -> Optional[Telemetry]:
    """The active :class:`Telemetry` session, or None.

    Instrumentation sites use this as the no-op guard::

        tel = get_telemetry()
        if tel is not None:
            tel.metrics.counter("train.steps").inc()
    """
    return _ACTIVE.get()


@contextlib.contextmanager
def use_telemetry(session: Telemetry) -> Iterator[Telemetry]:
    """Install an existing session for the duration of the block."""
    token = _ACTIVE.set(session)
    try:
        yield session
    finally:
        _ACTIVE.reset(token)


@contextlib.contextmanager
def telemetry(
    run_log: Union[str, RunLogger, None] = None,
    config: Optional[Dict[str, object]] = None,
    seeds: Optional[Dict[str, object]] = None,
    registry: Optional[MetricsRegistry] = None,
    profile_hz: Optional[float] = None,
    profiler: Optional[Profiler] = None,
) -> Iterator[Telemetry]:
    """Create and install a telemetry session for the duration of the block.

    ``run_log`` may be a path (a :class:`RunLogger` is created, opened with
    ``run_start`` carrying ``config``/``seeds``, and closed with a final
    ``metric_snapshot`` + ``run_end``) or an already-open logger (left open
    on exit, snapshot still written).  Without ``run_log`` the session
    collects metrics and spans in memory only.

    ``profile_hz`` arms the continuous sampling profiler at that rate
    (``profiler`` passes a pre-configured :class:`Profiler` instead); it
    starts with the session, streams ``profile`` events into the run log,
    and stops — flushing its final delta — before the closing metric
    snapshot.
    """
    owns_logger = isinstance(run_log, str)
    logger = RunLogger(run_log, config=config, seeds=seeds) if owns_logger else run_log
    if profiler is None and profile_hz:
        profiler = Profiler(hz=profile_hz)
    session = Telemetry(registry=registry, run_logger=logger, profiler=profiler)
    if owns_logger:
        logger.run_start()
    status = "ok"
    error: Optional[str] = None
    try:
        if profiler is not None:
            profiler.start()
        with use_telemetry(session):
            yield session
    except BaseException as exc:
        status, error = "error", type(exc).__name__
        raise
    finally:
        if profiler is not None:
            profiler.stop()
        if logger is not None:
            logger.metric_snapshot(session.metrics)
            if owns_logger:
                logger.run_end(status=status, **({} if error is None else {"error": error}))
                logger.close()


def trace(name: str, **attributes):
    """Open a span on the active session; a shared no-op without one.

    The hot-path primitive: ``with trace("featurize", batch=16): ...``
    costs one ``ContextVar.get`` when telemetry is off.
    """
    session = _ACTIVE.get()
    if session is None:
        return _NULL_CONTEXT
    return session.tracer.span(name, attributes)


def traced(name: Optional[str] = None):
    """Decorator tracing every call of ``fn`` on the active session.

    Unlike :meth:`Tracer.traced` (bound to one tracer), this resolves the
    session at call time and calls the function directly when none is
    installed.
    """

    def decorate(fn):
        import functools

        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            session = _ACTIVE.get()
            if session is None:
                return fn(*args, **kwargs)
            with session.tracer.span(span_name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate

