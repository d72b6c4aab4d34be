"""Pin BLAS to a single thread.

The library's numpy workloads are many small matmuls; OpenBLAS's default
thread pool (sized for large GEMMs) causes severe spin-wait contention on
them — on a single-core machine the first training step can run 30-40x
slower than steady state.  Importing this module (which ``repro`` does
before its own numpy import) caps the common BLAS thread-count environment
variables so any BLAS loaded afterwards starts single-threaded.

If numpy was imported first, the cap is also applied to its loaded
OpenBLAS through ``*_set_num_threads``; any other loaded BLAS keeps its
threads, so set ``OMP_NUM_THREADS=1`` before starting Python instead.
"""

from __future__ import annotations

import ctypes
import os
import sys
from typing import Callable, Dict, Optional

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


#: ``argtypes, restype`` of OpenBLAS's ``set``/``get_num_threads``.
_SIGNATURES = {"set": ([ctypes.c_int], None), "get": ([], ctypes.c_int)}


def loaded_openblas(action: str) -> Optional[Callable]:
    """numpy's OpenBLAS ``<action>_num_threads`` (``"set"``/``"get"``), or None.

    Found through numpy's core extension module, whose dependencies include
    its BLAS (the bundled scipy-openblas or a system OpenBLAS, ILP64 or not).
    """
    core = sys.modules.get("numpy._core._multiarray_umath") or sys.modules.get(
        "numpy.core._multiarray_umath"
    )
    if core is None:
        return None
    try:
        library = ctypes.CDLL(core.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            function = getattr(library, f"{prefix}_{action}_num_threads{suffix}", None)
            if function is not None:
                function.argtypes, function.restype = _SIGNATURES[action]
                return function
    return None


def limit_blas_threads(count: Optional[int] = None) -> None:
    """Cap BLAS threads via environment and, if numpy is loaded, at run time.

    With ``count=None`` (the default, used at ``repro`` import time) each
    thread-count variable is only *defaulted* to 1, so values the user set
    in the environment win; the run-time cap then applies only if the user
    set none of them.  An explicit ``count`` is a request and overrides
    pre-set variables — callers who pass one expect it honoured.

    The variables reach BLAS libraries loaded afterwards; an OpenBLAS numpy
    already loaded is capped through :func:`loaded_openblas`.  The repo's
    ``conftest.py`` files set the variables before any test import.
    """
    user_set = any(var in os.environ for var in _ENV_VARS)
    for var in _ENV_VARS:
        if count is None:
            os.environ.setdefault(var, "1")
        else:
            os.environ[var] = str(count)
    setter = None if count is None and user_set else loaded_openblas("set")
    if setter is not None:
        setter(1 if count is None else count)


limit_blas_threads()
