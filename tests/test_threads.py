"""limit_blas_threads: defaulting vs explicit-override semantics, and the
run-time cap on an OpenBLAS that numpy loaded first."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro._threads import (
    _ENV_VARS,
    blas_thread_counts,
    limit_blas_threads,
    loaded_openblas,
)


@pytest.fixture(autouse=True)
def restore_runtime_threads():
    # An explicit count also reaches the loaded OpenBLAS; put the session's
    # thread count back so later tests do not run multi-threaded.
    get, set_ = loaded_openblas("get"), loaded_openblas("set")
    before = get() if get is not None else None
    yield
    if before is not None:
        set_(before)


def test_default_fills_unset_variables(monkeypatch):
    for var in _ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    limit_blas_threads()
    for var in _ENV_VARS:
        assert os.environ[var] == "1"


def test_default_respects_preset_environment(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "8")
    limit_blas_threads()
    assert os.environ["OMP_NUM_THREADS"] == "8"


def test_explicit_count_overrides_preset_environment(monkeypatch):
    for var in _ENV_VARS:
        monkeypatch.setenv(var, "8")
    limit_blas_threads(2)
    for var in _ENV_VARS:
        assert os.environ[var] == "2"


def test_blas_thread_counts_reports_every_variable(monkeypatch):
    # Benchmark records report this dict, so it must cover exactly the
    # variables limit_blas_threads manages.
    for var in _ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    assert blas_thread_counts() == {var: None for var in _ENV_VARS}
    limit_blas_threads(3)
    assert blas_thread_counts() == {var: "3" for var in _ENV_VARS}


def _threads_after_import(env_overrides):
    """OpenBLAS threads in a child that imports numpy, then ``repro``."""
    env = {k: v for k, v in os.environ.items() if k not in _ENV_VARS}
    env.update(env_overrides)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    code = (
        "import numpy\n"
        "import repro\n"
        "from repro._threads import loaded_openblas\n"
        "get = loaded_openblas('get')\n"
        "print(-1 if get is None else get())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    threads = int(out.stdout.strip())
    if threads < 0:
        pytest.skip("numpy does not use an OpenBLAS with a known symbol")
    return threads


def test_import_caps_openblas_loaded_before_repro():
    assert _threads_after_import({}) == 1


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs")
def test_import_keeps_user_thread_setting():
    assert _threads_after_import({"OPENBLAS_NUM_THREADS": "2"}) == 2
