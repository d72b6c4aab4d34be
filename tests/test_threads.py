"""limit_blas_threads: defaulting vs explicit-override semantics."""

import os

from repro._threads import _ENV_VARS, blas_thread_counts, limit_blas_threads


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
