"""Declarative alert rules over the live telemetry stream.

PR 4 made runs *observable*; this module makes them *watched*.  An
:class:`AlertEngine` holds a list of :class:`Rule` objects and consumes
the same event/span stream a :class:`~repro.obs.Telemetry` session writes
to its run log.  Each rule watches one family of numeric series (selected
by an ``fnmatch`` pattern), keeps a trailing window per concrete series,
and fires when its condition holds — producing a structured
:class:`Alert` that the session emits as an ``alert`` event into the run
log, counts under the ``alerts.fired`` metric, and (optionally) raises as
:class:`AlertError`.

Series the engine derives from the stream
-----------------------------------------

``{phase}.losses.{name}``
    Every entry of a ``step`` event's ``losses`` dict (``phase`` falls
    back to ``run`` when the event carries none).
``{phase}.{field}``
    Every other numeric top-level field of a ``step`` event
    (``grad_norm``, ``selection_rate``, …).
``{phase}.step_gap``
    Seconds between consecutive ``step`` events of one phase (monotonic
    clock) — the watchdog/throughput signal.
``span.{name}``
    Durations of finished spans.
``gauge:{name}``
    The unlabeled series of a registry gauge, sampled at every ``step``
    event (e.g. ``gauge:feature_cache.hit_rate``).

Conditions are plain callables ``(values) -> Optional[str]`` over the
trailing window (newest value last); the factories below cover the
built-in health checks of :func:`default_rules`:

* ``nan-loss`` — any non-finite loss value (critical).
* ``loss-spike`` — the newest loss is a z-score outlier against its
  trailing window.
* ``stalled-step`` — one step gap blows past the trailing median.
* ``throughput-drop`` — recent step gaps are sustainedly slower than the
  run's earlier gaps.
* ``scl-collapse`` / ``dnsp-collapse`` — the Eq. 7 contrastive /
  next-sentence objectives crash toward zero (the degenerate solution),
  as opposed to converging gradually.

Usage::

    with obs.telemetry(run_log="run.jsonl", alerts=True):   # default rules
        trainer.fit(train, validation)

    engine = AlertEngine(default_rules(), raise_on={"critical"})
    with obs.telemetry(run_log="run.jsonl", alerts=engine):
        ...   # a NaN loss now raises AlertError

The engine is entirely passive without a session: constructing one never
touches the instrumentation fast path (inactive sessions still cost one
``ContextVar.get`` per site).
"""

from __future__ import annotations

import fnmatch
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Alert",
    "AlertError",
    "AlertEngine",
    "Rule",
    "default_rules",
    "non_finite",
    "zscore_above",
    "above",
    "below",
    "collapse",
    "stalled",
    "throughput_drop",
]

#: Valid severities, mildest first.
SEVERITIES = ("info", "warning", "critical")

Condition = Callable[[Sequence[float]], Optional[str]]


class AlertError(RuntimeError):
    """Raised by a session when a rule in ``raise_on`` severities fires."""

    def __init__(self, alert: "Alert"):
        super().__init__(f"[{alert.severity}] {alert.rule}: {alert.message}")
        self.alert = alert


@dataclass
class Alert:
    """One rule firing, ready to be logged as an ``alert`` event.

    ``created`` (wall-clock epoch seconds) is stamped at firing time so
    consumers that reason about recency — the telemetry server's
    readiness probe, the ``/alerts`` endpoint — never have to re-parse
    the run log; it is *not* part of :meth:`to_fields` because the run
    logger stamps its own ``ts`` on the alert event.
    """

    rule: str
    severity: str
    series: str
    message: str
    value: float
    step: Optional[int] = None
    phase: Optional[str] = None
    created: float = field(default_factory=time.time)

    def to_fields(self) -> Dict[str, object]:
        """Event payload (``None`` fields dropped)."""
        fields: Dict[str, object] = {
            "rule": self.rule,
            "severity": self.severity,
            "series": self.series,
            "message": self.message,
            "value": self.value,
        }
        if self.step is not None:
            fields["step"] = self.step
        if self.phase is not None:
            fields["phase"] = self.phase
        return fields


@dataclass
class Rule:
    """One declarative health check.

    ``metric`` is an ``fnmatch`` pattern over the derived series names
    (see the module docstring); the rule keeps an independent trailing
    window of up to ``window`` values per matching concrete series and
    evaluates ``condition`` on it after every new observation.

    ``cooldown`` suppresses re-firing on the same series for that many
    observations after a hit (default: the window length), so a sustained
    bad state produces a heartbeat of alerts instead of one per step.
    """

    name: str
    metric: str
    condition: Condition
    window: int = 32
    severity: str = "warning"
    cooldown: Optional[int] = None

    def __post_init__(self):
        if self.window <= 0:
            raise ValueError("rule window must be positive")
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, not {self.severity!r}"
            )


# ----------------------------------------------------------------------
# Condition factories
# ----------------------------------------------------------------------
def non_finite() -> Condition:
    """Fire when the newest value is NaN or infinite."""

    def check(values: Sequence[float]) -> Optional[str]:
        if values and not math.isfinite(values[-1]):
            return f"non-finite value {values[-1]!r}"
        return None

    return check


def zscore_above(z: float = 6.0, min_points: int = 8) -> Condition:
    """Fire when the newest value is ``z`` standard deviations above the
    mean of the *preceding* window (spikes only — drops are healthy for
    losses).  Constant or too-short windows never fire."""

    def check(values: Sequence[float]) -> Optional[str]:
        if len(values) < min_points + 1:
            return None
        history = [v for v in values[:-1] if math.isfinite(v)]
        latest = values[-1]
        if len(history) < min_points or not math.isfinite(latest):
            return None
        mean = sum(history) / len(history)
        variance = sum((v - mean) ** 2 for v in history) / len(history)
        std = math.sqrt(variance)
        if std < 1e-12:
            return None
        score = (latest - mean) / std
        if score > z:
            return (
                f"value {latest:.6g} is {score:.1f} standard deviations above "
                f"the trailing mean {mean:.6g}"
            )
        return None

    return check


def above(limit: float) -> Condition:
    """Fire when the newest value exceeds ``limit``."""

    def check(values: Sequence[float]) -> Optional[str]:
        if values and math.isfinite(values[-1]) and values[-1] > limit:
            return f"value {values[-1]:.6g} above limit {limit:.6g}"
        return None

    return check


def below(limit: float, min_points: int = 1) -> Condition:
    """Fire when the newest value drops under ``limit``."""

    def check(values: Sequence[float]) -> Optional[str]:
        if len(values) < min_points:
            return None
        if math.isfinite(values[-1]) and values[-1] < limit:
            return f"value {values[-1]:.6g} below limit {limit:.6g}"
        return None

    return check


def collapse(
    floor: float = 1e-4, ratio: float = 0.05, min_points: int = 6
) -> Condition:
    """Objective collapse: the newest value hits an absolute ``floor`` or
    crashes to under ``ratio`` of the trailing median in one window —
    the signature of SCL/DNSP finding a degenerate solution, distinct
    from gradual healthy convergence."""

    def check(values: Sequence[float]) -> Optional[str]:
        if not values:
            return None
        latest = values[-1]
        if not math.isfinite(latest):
            return None
        if latest <= floor:
            return f"value {latest:.6g} at or under collapse floor {floor:.6g}"
        history = sorted(v for v in values[:-1] if math.isfinite(v))
        if len(history) < min_points:
            return None
        median = history[len(history) // 2]
        if median > 0 and latest < ratio * median:
            return (
                f"value {latest:.6g} crashed below {ratio:.0%} of the "
                f"trailing median {median:.6g}"
            )
        return None

    return check


def stalled(
    factor: float = 20.0, min_points: int = 3, floor_seconds: float = 0.25
) -> Condition:
    """Watchdog over step gaps: one gap ``factor``x the trailing median
    (and over an absolute floor, so microsecond jitter never trips it)."""

    def check(values: Sequence[float]) -> Optional[str]:
        if len(values) < min_points + 1:
            return None
        latest = values[-1]
        history = sorted(values[:-1])
        median = history[len(history) // 2]
        if latest > floor_seconds and median > 0 and latest > factor * median:
            return (
                f"step took {latest:.3f}s, {latest / median:.1f}x the trailing "
                f"median {median:.3f}s"
            )
        return None

    return check


def throughput_drop(
    factor: float = 2.0,
    recent: int = 5,
    min_points: int = 12,
    floor_seconds: float = 0.0,
) -> Condition:
    """Sustained slowdown: the mean of the last ``recent`` step gaps is
    ``factor``x the mean of the earlier gaps in the window."""

    def check(values: Sequence[float]) -> Optional[str]:
        if len(values) < min_points or len(values) <= recent:
            return None
        head = values[:-recent]
        tail = values[-recent:]
        baseline = sum(head) / len(head)
        current = sum(tail) / len(tail)
        if current > floor_seconds and baseline > 0 and current > factor * baseline:
            return (
                f"mean step time {current:.4f}s over the last {recent} steps, "
                f"{current / baseline:.1f}x the earlier {baseline:.4f}s"
            )
        return None

    return check


def default_rules(
    spike_z: float = 6.0,
    stall_factor: float = 20.0,
    throughput_factor: float = 2.0,
) -> List[Rule]:
    """The built-in health checks every instrumented run should carry."""
    return [
        Rule(
            "nan-loss", "*losses.*", non_finite(), window=1, severity="critical"
        ),
        Rule(
            "loss-spike", "*losses.*", zscore_above(spike_z), window=24,
            severity="warning",
        ),
        Rule(
            "stalled-step", "*.step_gap", stalled(stall_factor), window=16,
            severity="warning",
        ),
        Rule(
            "throughput-drop", "*.step_gap",
            throughput_drop(throughput_factor), window=32, severity="warning",
        ),
        Rule(
            "scl-collapse", "*losses.cl", collapse(), window=16,
            severity="warning",
        ),
        Rule(
            "dnsp-collapse", "*losses.ns", collapse(), window=16,
            severity="warning",
        ),
    ]


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class AlertEngine:
    """Evaluates rules against the live event/span stream of one session.

    The engine is stream-driven: :class:`~repro.obs.Telemetry` forwards
    every ``step``/``epoch``/``eval`` event to :meth:`observe_event` and
    every finished span to :meth:`observe_span`; both return the alerts
    that fired so the session can log, count, and optionally raise them.

    ``raise_on`` is a set of severities that should abort the run (the
    session raises :class:`AlertError` *after* logging the alert, so the
    run log still carries the evidence).

    Thread-safety: events and spans may arrive from any thread (a
    background drift monitor, the training loop itself), so every piece of engine state — series windows,
    cooldowns, the alert log — is mutated under one engine lock.
    Condition functions are pure over a small copied window, so holding
    the lock across evaluation is cheap and keeps window/cooldown/alert
    updates atomic per observation.  ``*_unlocked`` helpers are only
    called with the lock held.
    """

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        raise_on: Sequence[str] = (),
        gauge_rules_sample_every: int = 1,
    ):
        self.rules = list(default_rules() if rules is None else rules)
        self.raise_on = frozenset(raise_on)
        unknown = self.raise_on - set(SEVERITIES)
        if unknown:
            raise ValueError(f"unknown raise_on severities: {sorted(unknown)}")
        #: Every alert fired over the engine's lifetime, in order.
        self.alerts: List[Alert] = []
        self._series: Dict[str, Deque[float]] = {}
        self._rules_for: Dict[str, List[Rule]] = {}
        self._cooldown: Dict[Tuple[int, str], int] = {}
        self._last_step: Dict[str, float] = {}
        self._gauge_rules = [
            rule for rule in self.rules if rule.metric.startswith("gauge:")
        ]
        self._registry = None
        self._sample_every = max(int(gauge_rules_sample_every), 1)
        self._steps_seen = 0
        self._lock = threading.Lock()

    # -- wiring ---------------------------------------------------------
    def bind(self, registry) -> None:
        """Attach the session's :class:`MetricsRegistry` (gauge sampling)."""
        self._registry = registry

    # -- stream ---------------------------------------------------------
    def observe_event(self, kind: str, fields: Dict[str, object]) -> List[Alert]:
        """Feed one run-log event; returns alerts fired by it."""
        if kind != "step":
            return []
        with self._lock:
            return self._observe_event_unlocked(kind, fields)

    def _observe_event_unlocked(
        self, kind: str, fields: Dict[str, object]
    ) -> List[Alert]:
        phase = str(fields.get("phase") or "run")
        step = fields.get("step")
        step = int(step) if isinstance(step, (int, float)) else None
        fired: List[Alert] = []

        losses = fields.get("losses")
        if isinstance(losses, dict):
            for name, value in losses.items():
                if isinstance(value, (int, float)):
                    fired += self._observe_unlocked(
                        f"{phase}.losses.{name}", float(value), step, phase
                    )
        for name, value in fields.items():
            if name in ("losses", "step", "epoch", "phase"):
                continue
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                fired += self._observe_unlocked(
                    f"{phase}.{name}", float(value), step, phase
                )

        now = time.perf_counter()
        last = self._last_step.get(phase)
        self._last_step[phase] = now
        if last is not None:
            fired += self._observe_unlocked(f"{phase}.step_gap", now - last, step, phase)

        self._steps_seen += 1
        if self._registry is not None and self._gauge_rules:
            if self._steps_seen % self._sample_every == 0:
                for rule in self._gauge_rules:
                    name = rule.metric[len("gauge:"):]
                    if name in self._registry:
                        value = self._registry.gauge(name).value()
                        fired += self._observe_unlocked(rule.metric, value, step, phase)
        return fired

    def observe_span(self, span) -> List[Alert]:
        """Feed one finished span; returns alerts fired by it."""
        duration = getattr(span, "duration", None)
        if duration is None:
            return []
        with self._lock:
            return self._observe_unlocked(f"span.{span.name}", float(duration))

    def observe_value(
        self,
        series: str,
        value: float,
        step: Optional[int] = None,
        phase: Optional[str] = None,
    ) -> List[Alert]:
        """Feed one value of a caller-derived series; returns fired alerts.

        The SLO engine's entry point: burn rates and budget balances are
        computed outside the event stream but must still fire through the
        same rule/window/cooldown machinery, so a sustained breach
        heartbeats instead of spamming and ``raise_on`` escalation works
        unchanged.
        """
        with self._lock:
            return self._observe_unlocked(series, float(value), step, phase)

    def add_rules(self, rules: Sequence[Rule]) -> None:
        """Append rules (e.g. compiled from SLOs) to the engine.

        The per-series rule cache is dropped so series observed before
        the addition re-match against the extended rule list.
        """
        with self._lock:
            self.rules.extend(rules)
            self._rules_for.clear()
            self._gauge_rules = [
                rule for rule in self.rules if rule.metric.startswith("gauge:")
            ]

    def last_alert_age(
        self, severity: Optional[str] = None, now: Optional[float] = None
    ) -> Optional[float]:
        """Seconds since the most recent alert (of ``severity``), or None.

        The readiness probe's primitive: ``/ready`` reports unready while
        a critical alert is younger than its recovery window.
        """
        now = time.time() if now is None else now
        with self._lock:
            for alert in reversed(self.alerts):
                if severity is None or alert.severity == severity:
                    return max(0.0, now - alert.created)
        return None

    # -- internals ------------------------------------------------------
    def _matching_rules_unlocked(self, series: str) -> List[Rule]:
        cached = self._rules_for.get(series)
        if cached is None:
            cached = [
                rule for rule in self.rules
                if rule.metric == series or fnmatch.fnmatchcase(series, rule.metric)
            ]
            self._rules_for[series] = cached
        return cached

    def _observe_unlocked(
        self,
        series: str,
        value: float,
        step: Optional[int] = None,
        phase: Optional[str] = None,
    ) -> List[Alert]:
        rules = self._matching_rules_unlocked(series)
        if not rules:
            return []
        buffer = self._series.get(series)
        if buffer is None:
            maxlen = max(rule.window for rule in rules)
            buffer = self._series[series] = deque(maxlen=maxlen)
        buffer.append(value)
        window = list(buffer)
        fired: List[Alert] = []
        for index, rule in enumerate(rules):
            key = (index, series)
            remaining = self._cooldown.get(key, 0)
            if remaining > 0:
                self._cooldown[key] = remaining - 1
                continue
            message = rule.condition(window[-rule.window:])
            if message is None:
                continue
            alert = Alert(
                rule=rule.name,
                severity=rule.severity,
                series=series,
                message=message,
                value=value,
                step=step,
                phase=phase,
            )
            self.alerts.append(alert)
            fired.append(alert)
            cooldown = rule.window if rule.cooldown is None else rule.cooldown
            if cooldown > 0:
                self._cooldown[key] = cooldown
        return fired

    # -- introspection --------------------------------------------------
    def series_names(self) -> List[str]:
        """Sorted names of every series the engine has seen."""
        return sorted(self._series)

    def count(self, severity: Optional[str] = None) -> int:
        """Alerts fired so far, optionally filtered by severity."""
        if severity is None:
            return len(self.alerts)
        return sum(1 for alert in self.alerts if alert.severity == severity)
