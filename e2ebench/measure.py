"""Timing arithmetic: call accounting, the percentile rule, the machine.

A *call* is one timed entry into the system.  It carries one or more
documents; a document whose result did not come back is a failure.  A
failure counts as missing every latency limit, so its latency sample is
``inf``: it can only push a percentile up, never down.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import math
import os
import platform
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

#: A percentile is reported only when this many samples lie beyond it.
MIN_TAIL = 10


def tail_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or None with too few samples beyond it."""
    n = len(samples)
    rank = max(1, math.ceil(q * n / 100.0))
    if n == 0 or n - rank < MIN_TAIL:
        return None
    return sorted(samples)[rank - 1]


def samples_for(q: float) -> int:
    """Fewest samples for which :func:`tail_percentile` reports ``q``."""
    n = MIN_TAIL + 1
    while tail_percentile([0.0] * n, q) is None:
        n += 1
    return n


def timed_call(fn: Callable, *args) -> Tuple[float, object]:
    """``(seconds, result)`` of one call; ``result`` is the exception if it raised."""
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as error:  # the failure is the measurement
        result = error
    return time.perf_counter() - start, result


@dataclass
class CallLog:
    """Per-call and per-document accounting of one measured phase."""

    seconds: float = 0.0
    calls: int = 0
    sent: int = 0
    failed: int = 0
    call_latencies: List[float] = field(default_factory=list)
    doc_latencies: List[float] = field(default_factory=list)
    errors: Counter = field(default_factory=Counter)

    @property
    def succeeded(self) -> int:
        return self.sent - self.failed

    def record(self, seconds: float, outcomes: Sequence[object]) -> None:
        """Account one call whose documents ended in ``outcomes``."""
        failures = [o for o in outcomes if isinstance(o, Exception)]
        for error in failures:
            self.errors[type(error).__name__] += 1
        self.seconds += seconds
        self.calls += 1
        self.sent += len(outcomes)
        self.failed += len(failures)
        self.call_latencies.append(
            math.inf if len(failures) == len(outcomes) else seconds
        )
        self.doc_latencies.extend(
            math.inf if isinstance(o, Exception) else seconds for o in outcomes
        )

    def merge(self, other: "CallLog") -> None:
        self.seconds += other.seconds
        self.calls += other.calls
        self.sent += other.sent
        self.failed += other.failed
        self.call_latencies += other.call_latencies
        self.doc_latencies += other.doc_latencies
        self.errors += other.errors

    @property
    def docs_per_s(self) -> float:
        return self.succeeded / self.seconds if self.seconds else 0.0


#: What one reference-kernel pass takes on a host running at nominal speed
#: (about the kernel's fast-phase time on the 2.1 GHz host the bounds were
#: tuned on).  It only fixes the scale of the normalised times.
NOMINAL_REFERENCE_S = 0.5e-3
#: Reference passes per host-speed sample; the sample is their median.
REFERENCE_PASSES = 3
#: A sample older than this is not used as the "before" of a call.
FRESH_S = 0.05

_REF_X = np.random.default_rng(0).standard_normal((48, 32))
_REF_W = 0.1 * np.random.default_rng(1).standard_normal((32, 32))
_REF_WORDS = [f"w{i % 97}" for i in range(400)]


def reference_kernel() -> int:
    """Fixed work shaped like the program's: dict-heavy Python, small numpy ops.

    It uses nothing from ``repro``, so a change to the program cannot change
    its time; only the host's speed can.
    """
    counts = {}
    for word in _REF_WORDS:
        counts[word] = counts.get(word, 0) + len(word)
    x = _REF_X
    for _ in range(24):
        x = np.tanh(x @ _REF_W)
        x = x - x.mean(axis=-1, keepdims=True)
    total = 0
    for i in range(3000):
        total += i % 7
    return total + len(counts)


class HostSpeed:
    """How fast the shared host runs right now, sampled next to the timed work.

    The host's CPU speed drifts between phases seconds long, by up to 60%,
    and the program's times drift with it.  A sample times
    :func:`reference_kernel`; :meth:`normalise` divides a measured interval
    by the mean sample around it over :data:`NOMINAL_REFERENCE_S`, giving
    the time the interval would have taken at nominal speed.  Samples are
    taken between timed intervals; inside one only through
    :meth:`sampling_after`, whose cost (:attr:`overhead`) the caller subtracts.
    """

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []  # (taken at, seconds)
        self.overhead = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        gc_was_enabled = gc.isenabled()
        gc.disable()  # the program's garbage is not the kernel's cost
        try:
            passes = []
            for _ in range(REFERENCE_PASSES):
                begin = time.perf_counter()
                reference_kernel()
                passes.append(time.perf_counter() - begin)
        finally:
            if gc_was_enabled:
                gc.enable()
        end = time.perf_counter()
        self.samples.append((end, statistics.median(passes)))
        self.overhead += end - start

    def mark(self) -> int:
        """Index of a fresh sample to start an interval at (sampling if needed)."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] > FRESH_S:
            self.sample()
        return len(self.samples) - 1

    def normalise(self, seconds: float, since: int) -> float:
        """``seconds`` measured after sample ``since``, at nominal host speed.

        Takes the closing sample; every sample from ``since`` on weighs in.
        """
        self.sample()
        window = [s for _, s in self.samples[since:]]
        return seconds * NOMINAL_REFERENCE_S / statistics.fmean(window)

    @property
    def slowdown(self) -> float:
        """Median sample over nominal: 1.0 at nominal speed, 1.3 when 30% slower."""
        return statistics.median(s for _, s in self.samples) / NOMINAL_REFERENCE_S

    @contextlib.contextmanager
    def sampling_after(self, owner, attribute: str):
        """Sample after every call of ``owner.attribute`` (a long call's pulse)."""
        original = getattr(owner, attribute)
        own = attribute in vars(owner)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            self.sample()
            return result

        setattr(owner, attribute, wrapper)
        try:
            yield
        finally:
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_fingerprint() -> dict:
    from repro._threads import blas_thread_counts

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_thread_counts(),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }
