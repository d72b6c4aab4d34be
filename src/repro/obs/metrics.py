"""Metrics registry: counters, gauges, histograms and timers.

The registry is the numeric half of :mod:`repro.obs` (spans are the other
half).  Every metric supports *labeled series*: ``counter.inc(path="hit")``
and ``counter.inc(path="miss")`` write to two independent series under one
metric name, the Prometheus data model scaled down to a single process.

Concurrency follows the same discipline as :func:`repro.nn.no_grad`: shared
mutable state is guarded explicitly (here a per-metric ``threading.Lock``;
there a ``contextvars.ContextVar``), so trainer threads and inference
threads can write the same registry without torn updates.

Snapshot semantics: :meth:`MetricsRegistry.snapshot` returns plain dicts
(JSON-ready) and :meth:`MetricsRegistry.reset` zeroes every series in
place.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterator, List, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Fixed bucket boundaries for latency histograms (seconds) — roughly
#: geometric from 100µs to 30s, the range a numpy-substrate model step or
#: batched predict call can plausibly land in.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    """Canonical hashable key for a label set (sorted, stringified)."""
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Metric:
    """Base class: a named family of labeled series behind one lock."""

    kind = "metric"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: Dict[LabelKey, object] = {}

    # -- internals ------------------------------------------------------
    def _zero(self):
        raise NotImplementedError

    def _series_value(self, state) -> object:
        """JSON-ready value for one series state."""
        return state

    # -- shared API -----------------------------------------------------
    def labels(self) -> List[Dict[str, str]]:
        """Label sets of every live series."""
        with self._lock:
            return [dict(key) for key in self._series]

    def reset(self) -> None:
        """Drop every series (counts restart from zero)."""
        with self._lock:
            self._series.clear()

    def snapshot(self) -> Dict[str, object]:
        """``{"name", "kind", "help", "series": [{"labels", "value"}]}``."""
        with self._lock:
            series = [
                {"labels": dict(key), "value": self._series_value(state)}
                for key, state in sorted(self._series.items())
            ]
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "series": series,
        }


class Counter(_Metric):
    """Monotonically increasing count, one float per label set."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (must be >= 0) to the labeled series."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        """Current total of the labeled series (0.0 if never written)."""
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))


class Gauge(_Metric):
    """Last-write-wins instantaneous value, one float per label set."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        """Record the current value of the labeled series."""
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Adjust the labeled series by ``amount`` (may be negative)."""
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        """Latest value of the labeled series (0.0 if never written)."""
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))


class _HistogramState:
    __slots__ = ("counts", "count", "total", "minimum", "maximum")

    def __init__(self, num_buckets: int):
        self.counts = [0] * (num_buckets + 1)  # +1 for the overflow bucket
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")


class Histogram(_Metric):
    """Fixed-boundary histogram with count/sum/min/max per label set.

    ``buckets`` are upper bounds (inclusive); observations beyond the last
    boundary land in an implicit overflow bucket.  Boundaries are fixed at
    construction — cumulative counts stay comparable across snapshots.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        super().__init__(name, help)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a sorted non-empty list")
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)

    def observe(self, value: float, **labels) -> None:
        """Record one observation into the labeled series."""
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        key = _label_key(labels)
        with self._lock:
            state = self._series.get(key)
            if state is None:
                state = self._series[key] = _HistogramState(len(self.buckets))
            state.counts[index] += 1
            state.count += 1
            state.total += value
            state.minimum = min(state.minimum, value)
            state.maximum = max(state.maximum, value)

    def value(self, **labels) -> Dict[str, object]:
        """Snapshot of one labeled series (zeros if never written)."""
        with self._lock:
            state = self._series.get(_label_key(labels))
            if state is None:
                state = _HistogramState(len(self.buckets))
            return self._series_value(state)

    def percentile(self, q: float, **labels) -> float:
        """Bucket-interpolated percentile estimate (``q`` in [0, 100]).

        Linear interpolation inside the bucket holding the target rank;
        the first bucket's lower bound is the observed minimum and the
        overflow bucket's upper bound the observed maximum, so estimates
        never leave the observed range.  Empty series estimate 0.0.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile q must be in [0, 100]")
        with self._lock:
            state = self._series.get(_label_key(labels))
            if state is None:
                return 0.0
            return self._estimate_percentile(state, q)

    def _estimate_percentile(self, state: _HistogramState, q: float) -> float:
        if state.count == 0:
            return 0.0
        target = (q / 100.0) * state.count
        cumulative = 0
        for index, bucket_count in enumerate(state.counts):
            if bucket_count and cumulative + bucket_count >= target:
                lower = state.minimum if index == 0 else self.buckets[index - 1]
                upper = (
                    state.maximum
                    if index == len(self.buckets)
                    else self.buckets[index]
                )
                fraction = max(target - cumulative, 0.0) / bucket_count
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, state.minimum), state.maximum)
            cumulative += bucket_count
        return state.maximum

    def _series_value(self, state: _HistogramState) -> Dict[str, object]:
        return {
            "count": state.count,
            "sum": state.total,
            "mean": state.total / state.count if state.count else 0.0,
            "min": state.minimum if state.count else 0.0,
            "max": state.maximum if state.count else 0.0,
            "p50": self._estimate_percentile(state, 50.0),
            "p95": self._estimate_percentile(state, 95.0),
            "p99": self._estimate_percentile(state, 99.0),
            "buckets": {
                **{str(b): c for b, c in zip(self.buckets, state.counts)},
                "+Inf": state.counts[-1],
            },
        }


class Timer(Histogram):
    """A latency histogram with a ``time()`` context manager.

    ``with timer.time(stage="encode"): ...`` observes the block's
    monotonic-clock duration in seconds into the underlying histogram.
    """

    kind = "timer"

    def time(self, **labels) -> "_TimerContext":
        """Context manager observing the wrapped block's wall time."""
        return _TimerContext(self, labels)


class _TimerContext:
    __slots__ = ("_timer", "_labels", "_started")

    def __init__(self, timer: Timer, labels: Dict[str, object]):
        self._timer = timer
        self._labels = labels
        self._started = 0.0

    def __enter__(self) -> "_TimerContext":
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._timer.observe(time.perf_counter() - self._started, **self._labels)


class MetricsRegistry:
    """Get-or-create home for every metric of one telemetry session.

    ``registry.counter("cache.hits")`` returns the same :class:`Counter`
    on every call; asking for an existing name with a different kind (or a
    histogram with different buckets) raises — silent shadowing would
    corrupt series.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    # -- get-or-create --------------------------------------------------
    def _get(self, cls, name: str, help: str, **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, help, **kwargs)
            elif type(metric) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"not {cls.kind}"
                )
            elif help and not metric.help:
                # Backfill: the first caller often creates the series on a
                # hot path without docs; a later declaration site may
                # supply the help text.
                metric.help = help
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the named :class:`Counter`."""
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the named :class:`Gauge`."""
        return self._get(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Get or create the named :class:`Histogram` (fixed boundaries)."""
        metric = self._get(Histogram, name, help, buckets=buckets)
        if metric.buckets != tuple(float(b) for b in buckets):
            raise ValueError(f"metric {name!r} exists with different buckets")
        return metric

    def timer(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Timer:
        """Get or create the named :class:`Timer`."""
        metric = self._get(Timer, name, help, buckets=buckets)
        if metric.buckets != tuple(float(b) for b in buckets):
            raise ValueError(f"metric {name!r} exists with different buckets")
        return metric

    # -- introspection --------------------------------------------------
    def __iter__(self) -> Iterator[_Metric]:
        with self._lock:
            metrics = list(self._metrics.values())
        return iter(metrics)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def names(self) -> List[str]:
        """Sorted names of every registered metric."""
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready dump: ``{name: metric.snapshot()}``."""
        return {metric.name: metric.snapshot() for metric in self}

    def reset(self) -> None:
        """Zero every series of every metric (names stay registered)."""
        for metric in self:
            metric.reset()
