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
(JSON-ready), :meth:`MetricsRegistry.reset` zeroes every series in place,
and :meth:`MetricsRegistry.to_jsonl` streams one line per series for
offline aggregation.
"""

from __future__ import annotations

import json
import re
import threading
import time
from typing import Dict, IO, Iterator, List, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "validate_exposition",
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


def _prometheus_name(name: str) -> str:
    """Sanitise a metric name for the Prometheus exposition grammar."""
    sanitised = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if sanitised and sanitised[0].isdigit():
        sanitised = "_" + sanitised
    return sanitised


def _escape_label_value(value: object) -> str:
    """Label-value escaping per the exposition format: ``\\`` first (so
    the escapes it introduces are never re-escaped), then ``"`` and
    literal newlines."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """``# HELP`` escaping: only ``\\`` and newlines are special there
    (quotes pass through verbatim, unlike label values)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _prometheus_labels(labels: Dict[str, str]) -> str:
    """``{key="value",...}`` with sorted keys and escaped values."""
    if not labels:
        return ""
    parts = []
    for key in sorted(labels):
        parts.append(f'{_prometheus_name(key)}="{_escape_label_value(labels[key])}"')
    return "{" + ",".join(parts) + "}"


def _format_float(value: float) -> str:
    """Float rendering for exposition samples (``repr``-exact, no padding)."""
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return f"{value:.1f}"
    return repr(value)


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
                # hot path without docs; a later declaration site (an SLO,
                # a server) may supply the # HELP text.
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

    # -- introspection / export -----------------------------------------
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

    def to_prometheus(self) -> str:
        """Prometheus text-exposition dump of every series (version 0.0.4).

        Stdlib-only so a serving tier's ``/metrics`` endpoint is a
        one-liner.  Conventions: metric names sanitised to
        ``[a-zA-Z0-9_:]`` (dots become underscores), counters gain the
        ``_total`` suffix, timers export as histograms, histogram buckets
        are *cumulative* with a closing ``+Inf``, label keys sorted, and
        metrics emitted in name order — byte-stable output for a given
        registry state (the golden-file test pins it).
        """
        lines: List[str] = []
        for metric in sorted(self, key=lambda m: m.name):
            dump = metric.snapshot()
            kind = dump["kind"]
            name = _prometheus_name(dump["name"])
            prom_kind = "histogram" if kind == "timer" else kind
            if dump["help"]:
                lines.append(f"# HELP {name} {_escape_help(dump['help'])}")
            lines.append(f"# TYPE {name} {prom_kind}")
            for series in dump["series"]:
                labels = series["labels"]
                value = series["value"]
                if prom_kind == "histogram":
                    cumulative = 0
                    for bound in metric.buckets:
                        cumulative += value["buckets"][str(bound)]
                        bucket_labels = dict(labels, le=_format_float(bound))
                        lines.append(
                            f"{name}_bucket{_prometheus_labels(bucket_labels)}"
                            f" {cumulative}"
                        )
                    lines.append(
                        f"{name}_bucket{_prometheus_labels(dict(labels, le='+Inf'))}"
                        f" {value['count']}"
                    )
                    lines.append(
                        f"{name}_sum{_prometheus_labels(labels)}"
                        f" {_format_float(value['sum'])}"
                    )
                    lines.append(
                        f"{name}_count{_prometheus_labels(labels)}"
                        f" {value['count']}"
                    )
                else:
                    sample = name + ("_total" if prom_kind == "counter" else "")
                    lines.append(
                        f"{sample}{_prometheus_labels(labels)}"
                        f" {_format_float(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def validate_exposition(self) -> List[str]:
        """Format-check this registry's own exposition (empty = valid)."""
        return validate_exposition(self.to_prometheus())

    def to_jsonl(self, destination: Union[str, IO[str]]) -> int:
        """Write one JSON line per labeled series; returns lines written.

        ``destination`` is a path (created/truncated) or an open handle.
        """
        lines = 0
        handle: IO[str]
        close = isinstance(destination, str)
        handle = open(destination, "w", encoding="utf-8") if close else destination
        try:
            for metric in self:
                dump = metric.snapshot()
                for series in dump["series"]:
                    record = {
                        "name": dump["name"],
                        "kind": dump["kind"],
                        "labels": series["labels"],
                        "value": series["value"],
                    }
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
                    lines += 1
        finally:
            if close:
                handle.close()
        return lines


# ----------------------------------------------------------------------
# Exposition format checker
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*",?)*)\})?'
    r' (?P<value>[^ ]+)(?: (?P<timestamp>-?[0-9]+))?$'
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\.)*)"')
_TYPE_KINDS = ("counter", "gauge", "histogram", "summary", "untyped")


def _unescape_label_value(value: str) -> str:
    return (
        value.replace("\\\\", "\x00")
        .replace('\\"', '"')
        .replace("\\n", "\n")
        .replace("\x00", "\\")
    )


def validate_exposition(text: str) -> List[str]:
    """Check a Prometheus text-exposition document; returns found errors.

    A pure-stdlib subset of ``promtool check metrics`` covering what a
    torn or malformed scrape would violate:

    * every non-comment line parses as ``name{labels} value`` with legal
      metric/label names, properly quoted+escaped label values, and a
      float-parseable value;
    * ``# TYPE`` lines name a known kind and appear at most once per
      metric, before that metric's first sample;
    * histogram ``_bucket`` series are cumulative — counts never decrease
      as ``le`` grows, a ``+Inf`` bucket exists, and it equals the
      family's ``_count`` sample for the same label set.

    An empty list means the document is valid.  Concurrent-scrape tests
    run every response through this, so a half-written series or an
    unescaped label value fails loudly.
    """
    errors: List[str] = []
    typed: Dict[str, str] = {}
    sampled: set = set()
    # (family, frozen non-le labels) -> [(le, value)]
    buckets: Dict[Tuple[str, LabelKey], List[Tuple[float, float]]] = {}
    counts: Dict[Tuple[str, LabelKey], float] = {}

    for number, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                if len(parts) < 3:
                    errors.append(f"line {number}: bare # {parts[1]} line")
                    continue
                name = parts[2]
                if not re.fullmatch(r"[a-zA-Z_:][a-zA-Z0-9_:]*", name):
                    errors.append(
                        f"line {number}: invalid metric name {name!r}"
                    )
                if parts[1] == "TYPE":
                    kind = parts[3].strip() if len(parts) > 3 else ""
                    if kind not in _TYPE_KINDS:
                        errors.append(
                            f"line {number}: unknown TYPE {kind!r} for {name}"
                        )
                    if name in typed:
                        errors.append(
                            f"line {number}: duplicate TYPE for {name}"
                        )
                    if name in sampled:
                        errors.append(
                            f"line {number}: TYPE for {name} after its samples"
                        )
                    typed[name] = kind
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            errors.append(f"line {number}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        sampled.add(name)
        raw_value = match.group("value")
        try:
            value = float(raw_value)
        except ValueError:
            if raw_value not in ("+Inf", "-Inf", "NaN"):
                errors.append(
                    f"line {number}: unparseable value {raw_value!r}"
                )
            value = float("nan")
        labels: Dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            consumed = sum(
                len(m.group(0)) for m in _LABEL_RE.finditer(raw_labels)
            )
            pairs = _LABEL_RE.findall(raw_labels)
            if consumed + max(len(pairs) - 1, 0) < len(raw_labels.rstrip(",")):
                errors.append(
                    f"line {number}: malformed label block {{{raw_labels}}}"
                )
            labels = {
                key: _unescape_label_value(val) for key, val in pairs
            }
        if name.endswith("_bucket") and "le" in labels:
            family = name[: -len("_bucket")]
            le_raw = labels.pop("le")
            le = float("inf") if le_raw == "+Inf" else float(le_raw)
            buckets.setdefault((family, _label_key(labels)), []).append(
                (le, value)
            )
        elif name.endswith("_count"):
            family = name[: -len("_count")]
            counts[(family, _label_key(labels))] = value

    for (family, key), series in buckets.items():
        where = f"{family}{{{dict(key)}}}" if key else family
        ordered = sorted(series)
        values = [count for _, count in ordered]
        if values != sorted(values):
            errors.append(f"{where}: bucket counts not cumulative")
        if not ordered or ordered[-1][0] != float("inf"):
            errors.append(f"{where}: histogram lacks a +Inf bucket")
        elif (family, key) in counts and ordered[-1][1] != counts[(family, key)]:
            errors.append(
                f"{where}: +Inf bucket {ordered[-1][1]} != _count "
                f"{counts[(family, key)]}"
            )
    return errors
