"""Pin BLAS to a single thread.

The library's numpy workloads are many small matmuls; OpenBLAS's default
thread pool (sized for large GEMMs) causes severe spin-wait contention on
them — on a single-core machine the first training step can run 30-40x
slower than steady state.  Importing this module (which ``repro`` does
before its own numpy import) caps the common BLAS thread-count environment
variables so any BLAS loaded afterwards starts single-threaded.

If numpy was already imported with a multi-threaded BLAS, the cap cannot be
applied retroactively; set ``OMP_NUM_THREADS=1`` in the environment instead
(the test and benchmark suites do this in ``conftest.py``).
"""

from __future__ import annotations

import os
from typing import Dict, Optional

_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def blas_thread_counts() -> Dict[str, Optional[str]]:
    """The effective BLAS thread-count environment, for reporting.

    Maps each capped variable to its current value (None when unset), so
    a benchmark record can state the BLAS threading it ran under.
    """
    return {var: os.environ.get(var) for var in _ENV_VARS}


def limit_blas_threads(count: Optional[int] = None) -> None:
    """Cap BLAS threads via environment (no-op for already-loaded BLAS).

    With ``count=None`` (the default, used at ``repro`` import time) each
    thread-count variable is only *defaulted* to 1, so values the user set
    in the environment win.  An explicit ``count`` is a request and
    overrides pre-set variables — callers who pass one expect it honoured.

    Either way the variables only take effect for BLAS libraries loaded
    afterwards.  If numpy is already imported, set the variables before
    starting Python instead; the repo's root and benchmark ``conftest.py``
    files do exactly that (``os.environ.setdefault`` before any test
    import) as the fallback for test runs that bypass this module.
    """
    for var in _ENV_VARS:
        if count is None:
            os.environ.setdefault(var, "1")
        else:
            os.environ[var] = str(count)


limit_blas_threads()
