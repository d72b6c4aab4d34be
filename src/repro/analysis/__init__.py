"""Correctness tooling for the hand-rolled autograd substrate.

Three layers of defence against silent invariant violations in
:mod:`repro.nn` and its clients:

* :mod:`repro.analysis.lint` — an AST-based, repo-specific linter
  (``python -m repro.analysis.lint src/ tests/ benchmarks/``) enforcing
  the framework's static contracts: single-process autograd idioms
  (RN001–RN006) and the concurrency tier of
  :mod:`repro.analysis.concurrency_lint` (RN008, RN011, RN012: lock
  discipline, thread creation, label cardinality), sharpened by the
  interprocedural call graph of :mod:`repro.analysis.callgraph`.
* :mod:`repro.analysis.lock_audit` — a runtime lock-order sanitizer
  ("tsan-lite"): instrumented lock factories, per-thread acquisition
  stacks, lock-order-cycle and long-hold reports
  (``python -m repro.analysis.lock_audit tests/obs``).
* :mod:`repro.analysis.gradcheck` — central-difference numerical gradient
  checking plus a sweep harness that auto-discovers every differentiable
  op in the substrate and checks it at broadcasting, zero-size and
  length-masked shapes (``python -m repro.analysis.gradcheck``).
* :mod:`repro.analysis.graph_audit` — dynamic graph-integrity checks
  (dead parameters, stale gradients, NaN/Inf anomaly mode, cross-step
  leak detection) usable as a context manager around a training step.

Submodules are loaded lazily: the linter is pure-stdlib and must stay
importable (and fast) without pulling numpy in, e.g. in the CI lint job.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "Finding": "lint",
    "lint_paths": "lint",
    "lint_source": "lint",
    "default_rules": "lint",
    "load_baseline": "lint",
    "apply_baseline": "lint",
    "CallGraph": "callgraph",
    "build_call_graph": "callgraph",
    "CONCURRENCY_RULES": "concurrency_lint",
    "LockAudit": "lock_audit",
    "InstrumentedLock": "lock_audit",
    "audit_locks": "lock_audit",
    "GradcheckFailure": "gradcheck",
    "GradcheckResult": "gradcheck",
    "gradcheck": "gradcheck",
    "run_sweep": "gradcheck",
    "GraphAudit": "graph_audit",
    "GraphAuditError": "graph_audit",
    "graph_audit": "graph_audit",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)
