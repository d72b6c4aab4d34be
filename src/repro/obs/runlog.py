"""Structured JSONL run logging.

A :class:`RunLogger` streams one JSON object per line to a file as a run
progresses — crash-safe (each line is flushed), append-friendly, and
readable with nothing but ``json.loads``.  Event kinds:

``run_start``
    Opens the run; carries the explicit ``config`` and ``seeds`` so a log
    is self-describing and the run is reproducible from its first line.
``step`` / ``epoch`` / ``eval``
    Training progress: per-step losses and gradient norms, per-epoch
    aggregates, held-out evaluations.
``span``
    A finished :class:`repro.obs.tracing.Span` (streamed by the telemetry
    session's tracer).
``metric_snapshot``
    A full :meth:`repro.obs.MetricsRegistry.snapshot` dump.
``profile``
    A flush of the sampling profiler: collapsed stacks, hot functions,
    span self-time and memory watermarks (see :mod:`repro.obs.profiler`).
``run_end``
    Closes the run with a status and total wall time.

Every record carries ``event``, ``ts`` (wall-clock epoch seconds) and
``elapsed`` (monotonic seconds since the logger was opened).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, IO, List, Optional, Tuple, Union

__all__ = ["RunLogger", "read_run_log", "tail_events", "write_json"]


def _json_default(value):
    """Serialize numpy scalars/arrays (and other oddballs) sanely."""
    for attr in ("item",):  # numpy scalar -> python scalar
        if hasattr(value, attr) and not hasattr(value, "__len__"):
            return value.item()
    if hasattr(value, "tolist"):  # numpy array -> list
        return value.tolist()
    return str(value)


def write_json(path: str, payload: Dict[str, object], indent: int = 2) -> None:
    """Write one JSON document with the run-log serializer.

    The benchmark suites emit their ``BENCH_*.json`` reports through this
    exporter so numpy scalars in metric snapshots and span attributes never
    poison the dump.
    """
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=indent, default=_json_default)
        handle.write("\n")


def read_run_log(path: str) -> List[Dict[str, object]]:
    """Parse a run-log JSONL file back into a list of event dicts."""
    events: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def tail_events(
    path: str, offset: int = 0
) -> Tuple[List[Dict[str, object]], int]:
    """Events appended past byte ``offset``; returns ``(events, offset')``.

    The incremental half of :func:`read_run_log`, for polling a *live*
    log (``repro.obs.report --follow``): only byte ranges terminated by
    a newline are consumed, so a writer caught mid-line keeps its
    partial record for the next poll instead of poisoning this one.  A missing file reads as "no new events yet".
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            data = handle.read()
    except OSError:
        return [], offset
    end = data.rfind(b"\n")
    if end < 0:
        return [], offset
    chunk = data[: end + 1]
    events: List[Dict[str, object]] = []
    for line in chunk.splitlines():
        line = line.strip()
        if line:
            events.append(json.loads(line.decode("utf-8")))
    return events, offset + len(chunk)


class RunLogger:
    """Streams structured run events to a JSONL file (thread-safe).

    Use as a context manager for automatic ``run_start``/``run_end``::

        with RunLogger("run.jsonl", config={...}, seeds={"trainer": 0}) as log:
            log.step(1, losses={"crf": 1.7}, grad_norm=3.2)

    or drive :meth:`run_start` / :meth:`run_end` manually.  ``config`` and
    ``seeds`` are captured verbatim on ``run_start`` so the log's first
    line fully describes the run.
    """

    def __init__(
        self,
        path: Union[str, IO[str]],
        config: Optional[Dict[str, object]] = None,
        seeds: Optional[Dict[str, object]] = None,
        run_id: Optional[str] = None,
    ):
        self._lock = threading.Lock()
        self._owns_handle = isinstance(path, str)
        self.path = path if self._owns_handle else getattr(path, "name", None)
        self._handle: IO[str] = (
            open(path, "w", encoding="utf-8") if self._owns_handle else path
        )
        self._opened = time.perf_counter()
        self.run_id = run_id or f"run-{int(time.time() * 1000):x}"
        self.config = dict(config or {})
        self.seeds = dict(seeds or {})
        self._started = False
        self._ended = False
        self.events_written = 0

    # ------------------------------------------------------------------
    def event(self, kind: str, **fields) -> Dict[str, object]:
        """Write one event line; returns the record that was written."""
        record: Dict[str, object] = {
            "event": kind,
            "ts": time.time(),
            "elapsed": time.perf_counter() - self._opened,
        }
        record.update(fields)
        line = json.dumps(record, default=_json_default)
        with self._lock:
            if self._handle.closed:
                return record
            self._handle.write(line + "\n")
            self._handle.flush()
            self.events_written += 1
        return record

    # -- lifecycle ------------------------------------------------------
    def run_start(self, **fields) -> Dict[str, object]:
        """Open the run: records run id, config and seeds."""
        self._started = True
        return self.event(
            "run_start",
            run_id=self.run_id,
            config=self.config,
            seeds=self.seeds,
            **fields,
        )

    def run_end(self, status: str = "ok", **fields) -> Dict[str, object]:
        """Close the run (idempotent); records status and total seconds."""
        if self._ended:
            return {}
        self._ended = True
        return self.event(
            "run_end",
            run_id=self.run_id,
            status=status,
            total_seconds=time.perf_counter() - self._opened,
            **fields,
        )

    def close(self) -> None:
        """Write ``run_end`` if pending and close the owned file handle."""
        if self._started and not self._ended:
            self.run_end()
        if self._owns_handle and not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "RunLogger":
        self.run_start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._started and not self._ended:
            self.run_end(
                status="ok" if exc_type is None else "error",
                **({} if exc_type is None else {"error": exc_type.__name__}),
            )
        self.close()

    # -- typed events ---------------------------------------------------
    def step(self, step: int, losses: Optional[Dict[str, float]] = None,
             **fields) -> Dict[str, object]:
        """One optimizer step: losses and whatever else the trainer knows."""
        return self.event("step", step=int(step), losses=losses or {}, **fields)

    def epoch(self, epoch: int, **fields) -> Dict[str, object]:
        """End-of-epoch aggregate."""
        return self.event("epoch", epoch=int(epoch), **fields)

    def eval(self, **fields) -> Dict[str, object]:
        """A held-out evaluation result."""
        return self.event("eval", **fields)

    def span(self, span) -> Dict[str, object]:
        """A finished :class:`repro.obs.tracing.Span`."""
        return self.event("span", **span.to_dict())

    def metric_snapshot(self, registry) -> Dict[str, object]:
        """A full metrics-registry dump."""
        return self.event("metric_snapshot", metrics=registry.snapshot())
