"""Runtime lock-order sanitizer ("tsan-lite") for the repro substrate.

The static rules in :mod:`repro.analysis.concurrency_lint` see lock
*discipline* (mutations outside ``with self._lock``); they cannot see
lock *order*.  A deadlock needs two locks taken in opposite orders on
two threads — a property of the dynamic acquisition graph, not of any
single statement.  This module observes that graph cheaply at test time:

* :func:`audit_locks` monkeypatches the ``threading.Lock`` /
  ``threading.RLock`` factories so every lock subsequently created by
  audited modules is wrapped in an :class:`InstrumentedLock`;
* each wrapper reports acquisitions/releases to a shared
  :class:`LockAudit`, which keeps a per-thread stack of held lock
  *sites* (``module:lineno`` of the lock's creation) and adds one
  ordered edge ``held_site -> new_site`` per nested acquisition;
* after the audited workload, :meth:`LockAudit.cycles` runs Tarjan's
  SCC over the site graph — any multi-node component is a potential
  deadlock (two sites acquired in both orders), reported with the
  first-seen stack of every participating edge.

On top of ordering it also flags holds longer than
``long_hold_seconds`` (lock-hold hygiene — nothing slow belongs under a
lock).

Sites, not lock objects, are the graph nodes: every ``Counter`` creates
its own ``self._lock`` at the same line, and it is the per-*class*
ordering discipline that must be consistent.  Same-site nestings
(holding two locks born at one line) are excluded from cycle detection
— with per-instance locks that order is data-dependent, not a class
invariant — but recorded separately for review.

Known blind spots (documented in ``docs/API.md``): locks created at
*import* time predate the patch and are invisible; ``from threading
import Lock`` binds the real factory before the patch; child processes
are not audited (the patch is per-process state); and C-level locks
(queue internals) are out of scope.  The repo's runtime locks are all
created call-time via ``threading.Lock()`` attribute lookups, which is
exactly what the patch intercepts.

Usage::

    from repro.analysis.lock_audit import audit_locks

    with audit_locks() as audit:
        run_workload()
    report = audit.report()
    assert not report["cycles"], report

CLI (the ``analysis-concurrency`` CI job)::

    python -m repro.analysis.lock_audit tests/obs \
        --json-out lock_audit_report.json

runs pytest over the given paths under the audit and exits 1 on any
lock-order cycle or test failure.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["InstrumentedLock", "LockAudit", "audit_locks", "main"]

#: Module-name filters audited by default: the package, its tests.
DEFAULT_MODULES = ("repro", "tests", "test_")

#: Holding any lock longer than this is flagged (seconds).
DEFAULT_LONG_HOLD_SECONDS = 0.25

#: Cap per report section so a pathological run cannot eat memory.
_MAX_EVENTS = 200


class _HeldEntry:
    """One lock a thread currently holds."""

    __slots__ = ("lock_id", "site", "since", "count")

    def __init__(self, lock_id: int, site: str, since: float):
        self.lock_id = lock_id
        self.site = site
        self.since = since
        self.count = 1  # reentrant RLock depth


def _short_stack(skip: int = 3, limit: int = 8) -> List[str]:
    """A compact formatted stack of the audited code (wrapper frames cut)."""
    frames = traceback.extract_stack()[:-skip][-limit:]
    return [f"{f.filename}:{f.lineno} in {f.name}" for f in frames]


class LockAudit:
    """Collects acquisition order, hold times, and hazard events.

    One instance is shared by every :class:`InstrumentedLock` of an
    :func:`audit_locks` session.  All collection state is guarded by an
    internal meta-lock (a *real* lock, never instrumented, so the audit
    cannot observe itself).
    """

    def __init__(self, long_hold_seconds: float = DEFAULT_LONG_HOLD_SECONDS):
        self.long_hold_seconds = long_hold_seconds
        self._meta = threading.Lock()
        self._held = threading.local()
        #: (from_site, to_site) -> {"count", "stack" (first seen), "threads"}
        self.edges: Dict[Tuple[str, str], Dict[str, object]] = {}
        self.sites: Dict[str, int] = {}  # site -> locks created there
        self.acquisitions = 0
        self.long_holds: List[Dict[str, object]] = []
        self.same_site_nestings: List[Dict[str, object]] = []

    # -- wiring ---------------------------------------------------------
    def _register_site(self, site: str) -> None:
        with self._meta:
            self.sites[site] = self.sites.get(site, 0) + 1

    def _stack_of(self) -> List[_HeldEntry]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = self._held.stack = []
        return stack

    # -- events (called by InstrumentedLock with the lock just taken) ---
    def note_acquire(self, lock_id: int, site: str) -> None:
        stack = self._stack_of()
        for entry in stack:
            if entry.lock_id == lock_id:
                entry.count += 1  # RLock re-entry: no new edge
                return
        now = time.perf_counter()
        thread = threading.current_thread().name
        if stack:
            with self._meta:
                self.acquisitions += 1
                for prior in stack:
                    if prior.site == site:
                        if len(self.same_site_nestings) < _MAX_EVENTS:
                            self.same_site_nestings.append({
                                "site": site,
                                "thread": thread,
                                "stack": _short_stack(),
                            })
                        continue
                    edge = self.edges.get((prior.site, site))
                    if edge is None:
                        self.edges[(prior.site, site)] = {
                            "count": 1,
                            "stack": _short_stack(),
                            "threads": {thread},
                        }
                    else:
                        edge["count"] += 1
                        edge["threads"].add(thread)
        else:
            with self._meta:
                self.acquisitions += 1
        stack.append(_HeldEntry(lock_id, site, now))

    def note_release(self, lock_id: int, site: str) -> None:
        stack = self._stack_of()
        for index in range(len(stack) - 1, -1, -1):
            entry = stack[index]
            if entry.lock_id != lock_id:
                continue
            entry.count -= 1
            if entry.count > 0:
                return
            held_for = time.perf_counter() - entry.since
            del stack[index]
            if held_for > self.long_hold_seconds:
                with self._meta:
                    if len(self.long_holds) < _MAX_EVENTS:
                        self.long_holds.append({
                            "site": site,
                            "seconds": round(held_for, 6),
                            "thread": threading.current_thread().name,
                        })
            return
        # Release of a lock acquired before the audit started (or handed
        # across threads) — nothing to unwind.

    # -- analysis -------------------------------------------------------
    def cycles(self) -> List[Dict[str, object]]:
        """Potential deadlocks: SCCs of ≥ 2 sites in the order graph."""
        graph: Dict[str, List[str]] = {}
        for src, dst in self.edges:
            graph.setdefault(src, []).append(dst)
            graph.setdefault(dst, [])
        index_counter = [0]
        indices: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Dict[str, bool] = {}
        stack: List[str] = []
        components: List[List[str]] = []

        def strongconnect(root: str) -> None:
            # Iterative Tarjan: (node, iterator position) work stack.
            work = [(root, 0)]
            while work:
                node, child_index = work.pop()
                if child_index == 0:
                    indices[node] = low[node] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(node)
                    on_stack[node] = True
                recursed = False
                children = graph[node]
                for position in range(child_index, len(children)):
                    child = children[position]
                    if child not in indices:
                        work.append((node, position + 1))
                        work.append((child, 0))
                        recursed = True
                        break
                    if on_stack.get(child):
                        low[node] = min(low[node], indices[child])
                if recursed:
                    continue
                if low[node] == indices[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        components.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])

        for node in graph:
            if node not in indices:
                strongconnect(node)

        reports = []
        for component in components:
            members = set(component)
            involved = {
                f"{src} -> {dst}": {
                    "count": info["count"],
                    "threads": sorted(info["threads"]),
                    "stack": info["stack"],
                }
                for (src, dst), info in self.edges.items()
                if src in members and dst in members
            }
            reports.append({"sites": component, "edges": involved})
        return reports

    def report(self) -> Dict[str, object]:
        """JSON-ready summary of everything observed."""
        cycles = self.cycles()
        return {
            "locks_created": sum(self.sites.values()),
            "sites": dict(sorted(self.sites.items())),
            "acquisitions": self.acquisitions,
            "edges": {
                f"{src} -> {dst}": {
                    "count": info["count"],
                    "threads": sorted(info["threads"]),
                    "stack": info["stack"],
                }
                for (src, dst), info in sorted(self.edges.items())
            },
            "cycles": cycles,
            "long_holds": list(self.long_holds),
            "same_site_nestings": [
                {"site": event["site"], "thread": event["thread"]}
                for event in self.same_site_nestings
            ],
            "ok": not cycles,
        }


class InstrumentedLock:
    """Drop-in ``threading.Lock``/``RLock`` stand-in that reports to an audit.

    Wraps the real primitive; every successful ``acquire`` / ``release``
    is mirrored into the shared :class:`LockAudit`.  The wrapper adds two
    attribute loads and (for nested acquisitions) one dict update per
    operation — cheap enough to run whole test suites under.
    """

    __slots__ = ("_inner", "_site", "_audit", "_depth")

    def __init__(self, inner, site: str, audit: LockAudit):
        self._inner = inner
        self._site = site
        self._audit = audit
        # Total acquisition depth across threads; only ever mutated while
        # the underlying lock is held, so updates are serialized.
        self._depth = 0
        audit._register_site(site)

    @property
    def site(self) -> str:
        return self._site

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._depth += 1
            self._audit.note_acquire(id(self), self._site)
        return acquired

    def release(self) -> None:
        self._audit.note_release(id(self), self._site)
        self._depth -= 1
        self._inner.release()

    def locked(self) -> bool:
        locked = getattr(self._inner, "locked", None)
        if locked is not None:
            return locked()
        # RLock before 3.12 has no locked(); a try-acquire probe would
        # succeed reentrantly for the owner, so use the tracked depth.
        return self._depth > 0

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> bool:
        self.release()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<InstrumentedLock site={self._site!r} of {self._inner!r}>"


def _module_matches(module: str, filters: Sequence[str]) -> bool:
    for prefix in filters:
        if module == prefix or module.startswith(prefix + "."):
            return True
        if module.rsplit(".", 1)[-1].startswith(prefix):
            return True
    return False


@contextmanager
def audit_locks(
    audit: Optional[LockAudit] = None,
    modules: Sequence[str] = DEFAULT_MODULES,
    long_hold_seconds: float = DEFAULT_LONG_HOLD_SECONDS,
):
    """Patch the ``threading`` lock factories for the duration of the block.

    Locks created by modules matching ``modules`` (prefix match on the
    dotted name, or on its last segment — so both ``repro.obs.metrics``
    and a pytest-imported ``test_alerts`` qualify) are instrumented; all
    other creations get the real primitive untouched.  The caller is
    identified by the factory's calling frame, which also naturally
    leaves stdlib-internal lock creation (queues, multiprocessing)
    uninstrumented.  Yields the shared :class:`LockAudit`.
    """
    if audit is None:
        audit = LockAudit(long_hold_seconds=long_hold_seconds)
    real_lock = threading.Lock
    real_rlock = threading.RLock

    def _factory(real):
        def make_lock():
            inner = real()
            frame = sys._getframe(1)
            module = frame.f_globals.get("__name__", "")
            if not _module_matches(module, modules):
                return inner
            site = f"{module}:{frame.f_lineno}"
            return InstrumentedLock(inner, site, audit)

        return make_lock

    threading.Lock = _factory(real_lock)
    threading.RLock = _factory(real_rlock)
    try:
        yield audit
    finally:
        threading.Lock = real_lock
        threading.RLock = real_rlock


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run pytest over the given paths under the lock audit.

    Exit status: 0 when the tests pass and the acquisition graph is
    acyclic, 1 otherwise.  Long holds are reported but advisory (they do
    not fail the run on their own).
    """
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lock_audit",
        description="Run test suites under the lock-order sanitizer.",
    )
    parser.add_argument("paths", nargs="+", help="test files or directories")
    parser.add_argument(
        "--json-out", help="write the full JSON report to this file"
    )
    parser.add_argument(
        "--modules",
        default=",".join(DEFAULT_MODULES),
        help="comma-separated module-name prefixes to instrument",
    )
    parser.add_argument(
        "--long-hold-seconds",
        type=float,
        default=DEFAULT_LONG_HOLD_SECONDS,
        help="advisory threshold for long lock holds",
    )
    parser.add_argument(
        "--pytest-arg",
        action="append",
        default=[],
        help="extra argument forwarded to pytest (repeatable)",
    )
    options = parser.parse_args(argv)

    import pytest

    modules = tuple(m.strip() for m in options.modules.split(",") if m.strip())
    with audit_locks(
        modules=modules, long_hold_seconds=options.long_hold_seconds
    ) as audit:
        status = pytest.main(list(options.paths) + ["-q"] + options.pytest_arg)

    report = audit.report()
    report["pytest_exit_status"] = int(status)
    if options.json_out:
        with open(options.json_out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)

    print(
        f"lock audit: {report['locks_created']} locks at "
        f"{len(report['sites'])} sites, {report['acquisitions']} "
        f"acquisitions, {len(report['edges'])} order edges"
    )
    for cycle in report["cycles"]:
        print(f"  CYCLE between sites: {', '.join(cycle['sites'])}")
        for edge, info in cycle["edges"].items():
            print(f"    {edge} (count {info['count']})")
    if report["long_holds"]:
        worst = max(report["long_holds"], key=lambda e: e["seconds"])
        print(
            f"  {len(report['long_holds'])} long hold(s); worst "
            f"{worst['seconds']}s at {worst['site']}"
        )
    if not report["cycles"]:
        print("lock audit: no lock-order cycles")
    return 1 if (report["cycles"] or int(status) != 0) else 0


if __name__ == "__main__":
    raise SystemExit(main())
