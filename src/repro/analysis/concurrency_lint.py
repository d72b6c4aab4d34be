"""Concurrency-aware lint rules (RN007–RN012) for the repro substrate.

The obs layer made instrumentation multi-thread-safe (per-metric locks),
the feature cache guards itself against ``fork``, and the ROADMAP's
serving tier will add thread pools on top.  None of those contracts is enforced by Python — a fork-unsafe
module global, an ndarray smuggled through a control queue, or a
mutation that slips outside a class's own lock does not raise, it
corrupts state under load.  These rules check the contracts statically,
through the same driver (and with the same suppression discipline) as
RN001–RN006.

Rules
-----
RN007  module-level mutable state (a container that the module itself
       mutates) read inside a worker-executed function, in a module
       without an ``os.register_at_fork`` guard or an in-function
       re-initialisation — the ``FeatureCache`` pattern, enforced
       everywhere
RN008  mutation of shared structures (``self.*`` containers / counters)
       outside a ``with self._lock:`` block, in classes that own a lock
RN009  queue ``put`` of graph/ndarray payloads — queues carry control
       messages; arrays cross process boundaries through shared-memory
       slabs
RN010  blocking ``Queue.get()`` / bare ``join()`` without a timeout or
       liveness loop (the dead-worker hang class)
RN011  ``threading.Thread`` / ``multiprocessing.Process`` creation
       outside the sanctioned modules (the obs profiler and server)
RN012  unbounded telemetry label cardinality: metric label values
       derived from per-item loop variables or document identifiers

Like the rest of :mod:`repro.analysis.lint`, the rules use the
interprocedural call graph where one level of helper indirection would
otherwise hide the pattern (RN007), and are pure stdlib.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .lint import (
    FileContext,
    Finding,
    Rule,
    _ancestors,
    _call_name,
    _dotted,
    _enclosing_class_name,
    _enclosing_function_names,
    _subtree_has,
)

__all__ = [
    "CONCURRENCY_RULES",
    "ModuleStateInWorker",
    "UnlockedSharedMutation",
    "ArrayThroughQueue",
    "BlockingQueueCall",
    "UnsanctionedThreadCreation",
    "UnboundedLabelCardinality",
]

#: Constructors whose result is a mutable container.
_CONTAINER_CALLS = {
    "dict",
    "list",
    "set",
    "OrderedDict",
    "defaultdict",
    "deque",
    "Counter",
    "WeakSet",
    "WeakValueDictionary",
    "WeakKeyDictionary",
}

#: Methods that mutate the container they are called on.
_MUTATING_METHODS = {
    "append",
    "appendleft",
    "extend",
    "extendleft",
    "insert",
    "remove",
    "discard",
    "pop",
    "popleft",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "add",
    "move_to_end",
    "sort",
    "reverse",
}


def _is_worker_function(node: ast.AST) -> bool:
    """Functions whose body runs inside a pool worker process.

    The naming convention for process-pool code: spawn entry points are
    ``_worker_main`` / ``init_*`` factories, dispatch targets are
    ``task_*`` methods, and the contexts that hold them are
    ``*WorkerContext`` classes.
    """
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    name = node.name
    if name == "_worker_main" or name.startswith(("task_", "init_")):
        return True
    cls = _enclosing_class_name(node)
    return cls is not None and cls.endswith("WorkerContext")


class ModuleStateInWorker(Rule):
    code = "RN007"
    title = "fork-unsafe module-level state read in a worker function"
    rationale = (
        "A module-level cache or registry inherited by a worker process "
        "carries parent-process state (identity keys, file handles, "
        "half-warm caches) that is silently wrong in the child.  Worker "
        "code may only touch such state when the module registers an "
        "os.register_at_fork re-init guard (the FeatureCache pattern) or "
        "the function rebuilds the global itself."
    )

    def _mutable_globals(self, ctx: FileContext) -> Set[str]:
        """Top-level container bindings that the module actually mutates.

        Read-only constant tables (header lists, rule tables) are not
        state; a global only counts when some code in the module mutates
        it in place — that is what makes inheriting it across a process
        boundary dangerous.
        """
        candidates: Set[str] = set()
        for node in ctx.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            is_container = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
                isinstance(value, ast.Call)
                and (_call_name(value.func) or "") in _CONTAINER_CALLS
            )
            if not is_container:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id != "__all__":
                    candidates.add(target.id)
        if not candidates:
            return set()
        mutated: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                if (
                    isinstance(owner, ast.Name)
                    and owner.id in candidates
                    and node.func.attr in _MUTATING_METHODS
                ):
                    mutated.add(owner.id)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = (
                    node.targets
                    if isinstance(node, (ast.Assign, ast.Delete))
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in candidates
                    ):
                        mutated.add(target.value.id)
        return mutated

    @staticmethod
    def _has_fork_guard(ctx: FileContext) -> bool:
        return _subtree_has(
            ctx.tree,
            lambda n: isinstance(n, ast.Call)
            and _call_name(n.func) == "register_at_fork",
        )

    @staticmethod
    def _reinitialises(fn: ast.AST, name: str) -> bool:
        """The function rebinds the global itself before using it."""
        declares_global = _subtree_has(
            fn, lambda n: isinstance(n, ast.Global) and name in n.names
        )
        if not declares_global:
            return False
        return _subtree_has(
            fn,
            lambda n: isinstance(n, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == name for t in n.targets
            ),
        )

    def _reads_in(
        self, fn: ast.AST, mutable: Set[str]
    ) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in mutable
            ):
                yield node, node.id

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_library:
            return
        mutable = self._mutable_globals(ctx)
        if not mutable or self._has_fork_guard(ctx):
            return
        worker_fns = [
            node for node in ast.walk(ctx.tree) if _is_worker_function(node)
        ]
        for fn in worker_fns:
            live = {
                name for name in mutable if not self._reinitialises(fn, name)
            }
            if not live:
                continue
            for node, name in self._reads_in(fn, live):
                yield self.finding(
                    ctx,
                    node,
                    f"worker function `{fn.name}` reads module-level mutable "
                    f"state `{name}` without an os.register_at_fork guard or "
                    "in-function re-initialisation",
                )
            # One level of helper indirection: a same-module helper that
            # reads the state is just as fork-unsafe when called from here.
            if ctx.callgraph is None:
                continue
            info = ctx.callgraph.function_for_node(fn)
            if info is None:
                continue

            def reads_mutable(call: ast.Call, graph) -> bool:
                target = graph.resolve(call, info.module, info.cls)
                if target is None or target.module != ctx.module_name:
                    return False
                if _is_worker_function(target.node):
                    return False  # flagged on its own
                return any(True for _ in self._reads_in(target.node, live))

            hit = ctx.callgraph.calls_matching(info, reads_mutable, max_depth=0)
            if hit is not None:
                yield self.finding(
                    ctx,
                    hit,
                    f"worker function `{fn.name}` calls a helper that reads "
                    "module-level mutable state without a fork guard",
                )


class UnlockedSharedMutation(Rule):
    code = "RN008"
    title = "shared-structure mutation outside the owning lock"
    rationale = (
        "A class that owns a threading.Lock has declared its state "
        "shared; mutating a container or counter attribute outside a "
        "`with self._lock:` block reintroduces the torn updates the lock "
        "exists to prevent.  Construction (__init__) and helpers named "
        "*_unlocked (documented as called-with-lock-held) are exempt."
    )

    EXEMPT_FUNCTIONS = {"__init__", "__new__", "__del__", "__reduce__"}

    @staticmethod
    def _lock_attrs(cls_node: ast.ClassDef) -> Set[str]:
        """Attributes assigned a Lock()/RLock() anywhere in the class."""
        attrs: Set[str] = set()
        for node in ast.walk(cls_node):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if not (
                isinstance(value, ast.Call)
                and (_call_name(value.func) or "") in ("Lock", "RLock")
            ):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
        return attrs

    @staticmethod
    def _under_lock(node: ast.AST, lock_attrs: Set[str]) -> bool:
        for ancestor in _ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                for item in ancestor.items:
                    expr = item.context_expr
                    if (
                        isinstance(expr, ast.Attribute)
                        and isinstance(expr.value, ast.Name)
                        and expr.value.id == "self"
                        and (expr.attr in lock_attrs or "lock" in expr.attr)
                    ):
                        return True
        return False

    @staticmethod
    def _self_attr(node: ast.AST) -> Optional[str]:
        """``self.<attr>`` (possibly under a subscript) → attr name."""
        if isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def _exempt(self, node: ast.AST, lock_attrs: Set[str]) -> bool:
        names = _enclosing_function_names(node)
        if not names:
            return True  # class-body level: construction
        if names[-1] in self.EXEMPT_FUNCTIONS or any(
            name.endswith("_unlocked") for name in names
        ):
            return True
        return self._under_lock(node, lock_attrs)

    def _mutations(
        self, method: ast.AST
    ) -> Iterator[Tuple[ast.AST, str, str]]:
        """(node, attr, description) for every shared-state mutation."""
        for node in ast.walk(method):
            if isinstance(node, ast.AugAssign):
                attr = self._self_attr(node.target)
                if attr is not None:
                    yield node, attr, f"augmented assignment to `self.{attr}`"
            elif isinstance(node, (ast.Assign, ast.Delete)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else node.targets
                )
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        attr = self._self_attr(target)
                        if attr is not None:
                            yield (
                                node,
                                attr,
                                f"item assignment into `self.{attr}`",
                            )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr not in _MUTATING_METHODS:
                    continue
                attr = self._self_attr(node.func.value)
                if attr is not None:
                    yield (
                        node,
                        attr,
                        f"`self.{attr}.{node.func.attr}(...)`",
                    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_library:
            return
        for cls_node in ast.walk(ctx.tree):
            if not isinstance(cls_node, ast.ClassDef):
                continue
            lock_attrs = self._lock_attrs(cls_node)
            if not lock_attrs:
                continue
            for node, attr, what in self._mutations(cls_node):
                if attr in lock_attrs:
                    continue  # rebinding the lock itself (fork re-init)
                if self._exempt(node, lock_attrs):
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"{what} in lock-owning class `{cls_node.name}` outside "
                    f"a `with self.{sorted(lock_attrs)[0]}:` block",
                )


class ArrayThroughQueue(Rule):
    code = "RN009"
    title = "graph/ndarray payload sent through a control queue"
    rationale = (
        "Pool queues carry small control payloads; pickling gradient or "
        "parameter arrays through them silently reintroduces the "
        "serialisation cost the shared-memory slabs exist to avoid, and "
        "a Tensor payload drags its autograd graph across the process "
        "boundary.  Arrays move through slabs, queues move indices and "
        "scalars."
    )

    ARRAY_NAMES = {
        "params",
        "parameters",
        "tensor",
        "tensors",
        "array",
        "arrays",
        "slab",
        "slabs",
        "weights",
    }

    @staticmethod
    def _queueish(receiver: str) -> bool:
        tail = receiver.split(".")[-1]
        return "queue" in receiver.lower() or tail in ("q", "results")

    def _array_like(self, node: ast.AST) -> bool:
        def predicate(n: ast.AST) -> bool:
            if isinstance(n, ast.Attribute) and n.attr in ("data", "grad"):
                return True
            if isinstance(n, ast.Call):
                name = _dotted(n.func)
                if name.startswith(("np.", "numpy.")):
                    return True
                if (_call_name(n.func) or "") == "Tensor":
                    return True
            if isinstance(n, ast.Name):
                lowered = n.id.lower()
                return lowered in self.ARRAY_NAMES or "grad" in lowered
            return False

        return _subtree_has(node, predicate)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_library:
            return
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("put", "put_nowait")
            ):
                continue
            receiver = _dotted(node.func.value)
            if not receiver or not self._queueish(receiver):
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if self._array_like(arg):
                    yield self.finding(
                        ctx,
                        node,
                        f"`{receiver}.put(...)` ships an array/graph payload "
                        "through a control queue; route arrays through "
                        "shared-memory slabs",
                    )
                    break


class BlockingQueueCall(Rule):
    code = "RN010"
    title = "blocking queue get / join without timeout or liveness loop"
    rationale = (
        "A bare Queue.get() or join() blocks forever when the peer "
        "process died without reporting (OOM kill, spawn bootstrap "
        "failure) — the hang class PR 7's _collect fixed with a poll "
        "loop.  Every blocking wait on another process or thread needs a "
        "timeout plus a liveness check."
    )

    JOIN_RECEIVER_HINTS = ("process", "thread", "worker", "queue", "pool")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_library:
            return
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            if node.args or node.keywords:
                continue  # any argument (timeout, block=...) opts out here
            receiver = _dotted(node.func.value)
            if not receiver:
                continue
            lowered = receiver.lower()
            if node.func.attr == "get" and ArrayThroughQueue._queueish(receiver):
                yield self.finding(
                    ctx,
                    node,
                    f"blocking `{receiver}.get()` without a timeout; poll "
                    "with a timeout and check peer liveness between polls",
                )
            elif node.func.attr == "join" and any(
                hint in lowered for hint in self.JOIN_RECEIVER_HINTS
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"`{receiver}.join()` without a timeout can hang on a "
                    "dead peer; join with a timeout and handle stragglers",
                )


class UnsanctionedThreadCreation(Rule):
    code = "RN011"
    title = "thread/process creation outside the sanctioned modules"
    rationale = (
        "Execution lanes live only in the sanctioned obs modules so "
        "teardown (no orphaned lanes), telemetry and the lock-order "
        "sanitizer see every one of them.  A stray threading.Thread in "
        "library code escapes all three."
    )

    #: Modules allowed to create execution lanes.  ``profiler.py`` owns the
    #: obs sampling daemon thread, which must observe every other lane.
    #: ``server.py`` owns the telemetry HTTP listener: its serve thread and
    #: semaphore-bounded handler threads only *read* session state through
    #: the per-metric/engine locks, so they cannot deadlock the lanes they
    #: observe.
    SANCTIONED_FILES = {"profiler.py", "server.py"}
    SPAWN_CALLS = {
        "Thread",
        "Process",
        "ThreadPoolExecutor",
        "ProcessPoolExecutor",
    }

    #: Modules whose spawn classes count when imported bare.
    PROVIDER_MODULES = ("threading", "multiprocessing", "concurrent.futures")

    def _bare_spawn_names(self, ctx: FileContext) -> Set[str]:
        """Spawn-class names this module imported from a real provider.

        A bare ``Process(...)`` call is only evidence when the module did
        ``from multiprocessing import Process`` (or similar) — otherwise
        it may be an unrelated local class that happens to share the name.
        """
        names: Set[str] = set()
        for node in ctx.tree.body:
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.module not in self.PROVIDER_MODULES:
                continue
            for alias in node.names:
                if alias.name in self.SPAWN_CALLS:
                    names.add(alias.asname or alias.name)
        return names

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_library or ctx.filename in self.SANCTIONED_FILES:
            return
        bare_names = self._bare_spawn_names(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node.func)
            if name not in self.SPAWN_CALLS:
                continue
            dotted = _dotted(node.func)
            if "." in dotted:
                # Dotted calls need a threading/multiprocessing-ish
                # module alias as their head.
                head = dotted.split(".")[0]
                if head not in (
                    "threading",
                    "multiprocessing",
                    "mp",
                    "ctx",
                    "concurrent",
                    "futures",
                ):
                    continue
            elif name not in bare_names:
                continue
            yield self.finding(
                ctx,
                node,
                f"`{dotted or name}(...)` creates an execution lane outside "
                "the sanctioned modules (repro.obs.profiler, repro.obs.server)",
            )


class UnboundedLabelCardinality(Rule):
    code = "RN012"
    title = "unbounded telemetry label cardinality"
    rationale = (
        "A label value derived from a per-item loop variable, document id, "
        "or stack-frame identity mints a fresh metric series per item: the "
        "registry (one lock + dict entry per series) grows with traffic "
        "until memory and snapshot time blow up.  Label values must come "
        "from small fixed sets (worker ids, thread names, stages, "
        "severities); stack identity belongs in event payloads "
        "(``profile`` events), never in metric labels."
    )

    METRIC_METHODS = {"inc", "set", "observe", "time"}
    METRIC_RECEIVER_HINTS = (
        "gauge",
        "counter",
        "timer",
        "histogram",
        "metric",
    )
    ID_ATTRS = {"doc_id", "document_id", "example_id", "resume_id", "run_id",
                "uid", "guid", "path"}
    #: Frame/code-object attributes: a label minted from one carries stack
    #: identity — one series per call site (or worse, per line).
    STACK_ATTRS = {"co_name", "co_filename", "co_qualname", "f_lineno",
                   "f_code", "f_back", "tb_lineno"}
    #: Label *keys* that declare stack identity by name.  Profiler output
    #: must route stacks through ``profile`` event payloads instead.
    STACK_LABEL_KEYS = {"stack", "frame", "frames", "function", "func",
                        "callsite", "lineno", "filename", "caller"}
    #: Loop sources whose length is bounded by the worker/shard/thread count.
    BOUNDED_ITER_HINTS = (
        "worker",
        "shard",
        "thread",
        "result",
        "duration",
        "severit",
        "stage",
        "phase",
    )

    def _is_metric_call(self, node: ast.Call) -> bool:
        if not isinstance(node.func, ast.Attribute):
            return False
        if node.func.attr not in self.METRIC_METHODS:
            return False
        receiver = node.func.value
        if isinstance(receiver, ast.Call):
            name = _call_name(receiver.func) or ""
        else:
            name = _dotted(receiver).split(".")[-1]
        lowered = name.lower()
        return any(hint in lowered for hint in self.METRIC_RECEIVER_HINTS)

    @staticmethod
    def _unwrap(value: ast.AST) -> List[ast.AST]:
        """Peel str()/int()/format conversions down to the payload exprs."""
        if isinstance(value, ast.Call) and (_call_name(value.func) or "") in (
            "str",
            "int",
            "repr",
            "format",
        ):
            return [arg for a in value.args for arg in
                    UnboundedLabelCardinality._unwrap(a)]
        if isinstance(value, ast.JoinedStr):
            out: List[ast.AST] = []
            for part in value.values:
                if isinstance(part, ast.FormattedValue):
                    out.extend(UnboundedLabelCardinality._unwrap(part.value))
            return out
        return [value]

    def _bounded_iter(self, iterable: ast.AST) -> bool:
        if isinstance(iterable, ast.Call):
            name = _call_name(iterable.func) or ""
            if name == "range":
                return True
            if name == "enumerate" and iterable.args:
                return self._bounded_iter(iterable.args[0])
            if name == "zip":
                return any(self._bounded_iter(a) for a in iterable.args)
            if (
                isinstance(iterable.func, ast.Attribute)
                and iterable.func.attr in ("items", "keys", "values")
            ):
                # dict.items() et al. inherit the receiver's boundedness.
                return self._bounded_iter(iterable.func.value)
        tail = _dotted(iterable).split(".")[-1].lower()
        if not tail and isinstance(iterable, ast.Name):
            tail = iterable.id.lower()
        return any(hint in tail for hint in self.BOUNDED_ITER_HINTS)

    @staticmethod
    def _loop_targets(node: ast.AST) -> Dict[str, ast.AST]:
        """Loop-variable name → the loop's iterable, for enclosing fors."""
        targets: Dict[str, ast.AST] = {}
        for ancestor in _ancestors(node):
            if isinstance(ancestor, (ast.For, ast.AsyncFor)):
                for name_node in ast.walk(ancestor.target):
                    if isinstance(name_node, ast.Name):
                        targets.setdefault(name_node.id, ancestor.iter)
            elif isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break  # loops outside the enclosing function don't bind here
        return targets

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_library:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.keywords:
                continue
            if not self._is_metric_call(node):
                continue
            loop_targets = self._loop_targets(node)
            for keyword in node.keywords:
                if keyword.arg is None:
                    continue
                if keyword.arg.lower() in self.STACK_LABEL_KEYS:
                    yield self.finding(
                        ctx,
                        node,
                        f"label `{keyword.arg}` names stack identity: one "
                        "series per call site is unbounded cardinality — "
                        "put stacks in `profile` event payloads, not "
                        "metric labels",
                    )
                    continue
                for value in self._unwrap(keyword.value):
                    if (
                        isinstance(value, ast.Attribute)
                        and value.attr in self.STACK_ATTRS
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"label `{keyword.arg}` derives from frame "
                            f"attribute `.{value.attr}`: stack identity "
                            "mints one series per call site — route it "
                            "through `profile` event payloads instead",
                        )
                        break
                    if (
                        isinstance(value, ast.Attribute)
                        and value.attr in self.ID_ATTRS
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"label `{keyword.arg}` derives from identifier "
                            f"attribute `.{value.attr}`: one metric series "
                            "per document is unbounded cardinality",
                        )
                        break
                    if (
                        isinstance(value, ast.Name)
                        and value.id in loop_targets
                        and not self._bounded_iter(loop_targets[value.id])
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"label `{keyword.arg}` takes the per-item loop "
                            f"variable `{value.id}`: series count grows with "
                            "the iterated collection",
                        )
                        break


CONCURRENCY_RULES: List[Rule] = [
    ModuleStateInWorker(),
    UnlockedSharedMutation(),
    ArrayThroughQueue(),
    BlockingQueueCall(),
    UnsanctionedThreadCreation(),
    UnboundedLabelCardinality(),
]
