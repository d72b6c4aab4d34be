"""Inference timing and profiling (the Time/Resume row of Table II).

Two layers of measurement:

* :func:`time_per_resume` — the original scalar: mean seconds per document.
* :func:`measure_latency` + :class:`LatencyStats` — distributional view
  (p50/p95 per-unit latency, docs/sec throughput) over repeated passes.

Per-stage wall time comes from :mod:`repro.obs` spans: wrap regions in
spans of a :class:`repro.obs.Tracer` (or run under a telemetry session,
whose ``predict_batch`` records ``featurize`` / ``encode`` / ``decode``)
and read :meth:`repro.obs.Tracer.breakdown`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..docmodel.document import ResumeDocument

__all__ = ["LatencyStats", "measure_latency", "time_per_resume"]


def time_per_resume(
    predict: Callable[[ResumeDocument], object],
    documents: Sequence[ResumeDocument],
    repeats: int = 1,
    warmup: int = 1,
) -> float:
    """Average wall-clock seconds to process one resume.

    Runs ``warmup`` unmeasured passes first (BLAS/page-cache warmup), then
    times ``repeats`` passes over the document list.
    """
    if not documents:
        raise ValueError("need at least one document to time")
    for _ in range(warmup):
        predict(documents[0])
    started = time.perf_counter()
    for _ in range(repeats):
        for document in documents:
            predict(document)
    elapsed = time.perf_counter() - started
    return elapsed / (repeats * len(documents))


@dataclass
class LatencyStats:
    """Summary statistics over per-unit latency samples (seconds)."""

    count: int
    total_seconds: float
    mean: float
    p50: float
    p95: float
    throughput: float  # units per second, over the whole measured span

    @classmethod
    def from_samples(
        cls, samples: Sequence[float], units: Optional[Sequence[int]] = None
    ) -> "LatencyStats":
        """Build from raw wall-time samples.

        ``samples[i]`` is the wall time of one measured call; ``units[i]``
        (default 1 each) is how many documents that call processed.  The
        percentiles are over per-unit latency — each sample normalised by
        its unit count — so batched and per-document runs are comparable.
        """
        if not samples:
            raise ValueError("need at least one timing sample")
        samples = np.asarray(samples, dtype=np.float64)
        if units is None:
            units = np.ones(len(samples), dtype=np.float64)
        else:
            units = np.asarray(units, dtype=np.float64)
            if units.shape != samples.shape:
                raise ValueError("units must align with samples")
            if (units <= 0).any():
                raise ValueError("unit counts must be positive")
        per_unit = samples / units
        total = float(samples.sum())
        total_units = float(units.sum())
        return cls(
            count=len(samples),
            total_seconds=total,
            mean=float(per_unit.mean()),
            p50=float(np.percentile(per_unit, 50)),
            p95=float(np.percentile(per_unit, 95)),
            throughput=total_units / total if total > 0 else float("inf"),
        )

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean,
            "p50_seconds": self.p50,
            "p95_seconds": self.p95,
            "throughput_per_second": self.throughput,
        }


def measure_latency(
    fn: Callable[[Sequence[ResumeDocument]], object],
    inputs: Sequence[Sequence[ResumeDocument]],
    repeats: int = 1,
    warmup: int = 1,
    unit_counts: Optional[Sequence[int]] = None,
) -> LatencyStats:
    """Time ``fn`` over each element of ``inputs``, ``repeats`` times.

    ``inputs`` is a list of call arguments (e.g. one document, or one batch
    of documents); ``unit_counts[i]`` says how many documents ``inputs[i]``
    carries (default 1).  Returns per-document latency percentiles and
    overall documents/second throughput.
    """
    if not inputs:
        raise ValueError("need at least one input to time")
    if unit_counts is not None and len(unit_counts) != len(inputs):
        raise ValueError("unit_counts must align with inputs")
    for _ in range(warmup):
        fn(inputs[0])
    samples: List[float] = []
    units: List[int] = []
    for _ in range(repeats):
        for index, item in enumerate(inputs):
            started = time.perf_counter()
            fn(item)
            samples.append(time.perf_counter() - started)
            units.append(1 if unit_counts is None else unit_counts[index])
    return LatencyStats.from_samples(samples, units)
