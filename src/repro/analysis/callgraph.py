"""Interprocedural call-graph resolution for the ``repro.analysis`` linter.

The AST rules in :mod:`repro.analysis.lint` were originally purely
syntactic: RN004 only saw a graph-building call when it appeared
*textually* inside a ``predict*`` function, so one level of helper
indirection (``predict`` → ``self._score`` → ``self.emissions``) was a
known false-negative shape.  This module closes that hole with a small,
deliberately conservative call graph over the linted file set:

* every top-level function and class method of every linted module is
  indexed under a stable qualified name (``module::Class.method``);
* calls are resolved **statically and unambiguously or not at all** —
  bare names to same-module functions, ``self.m()`` / ``cls.m()`` to
  methods of the lexically enclosing class (following single-name base
  classes within the same module), and imported names through
  ``import`` / ``from ... import`` bindings between linted modules
  (relative imports included);
* rules query one level of indirection at a time
  (:meth:`CallGraph.calls_matching`), which is exactly the contract the
  concurrency rules and RN004 need: a helper that itself hides the
  pattern another level down is out of scope by design.

Limitations (documented in ``docs/API.md``): no dynamic dispatch, no
aliasing (``f = self.emissions; f()`` is invisible), no decorators that
replace functions, no cross-package resolution beyond the linted file
set, and resolution never follows more than ``max_depth`` helper hops.
Everything here is stdlib-only, like the rest of the linter.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["FunctionInfo", "CallGraph", "build_call_graph", "module_name_for"]


def module_name_for(path: str) -> str:
    """Best-effort dotted module name for a source path.

    ``src/repro/obs/server.py`` → ``repro.obs.server``; package
    ``__init__`` files name the package itself.  Paths outside a
    recognisable package root fall back to their stem, which keeps
    single-file :func:`~repro.analysis.lint.lint_source` calls working.
    """
    parts = list(Path(path).with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    elif "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    return ".".join(parts) if parts else "<unknown>"


class FunctionInfo:
    """One indexed function or method: location plus its AST."""

    __slots__ = ("module", "cls", "name", "node", "path")

    def __init__(
        self,
        module: str,
        cls: Optional[str],
        name: str,
        node: ast.AST,
        path: str,
    ):
        self.module = module
        self.cls = cls
        self.name = name
        self.node = node
        self.path = path

    @property
    def qualname(self) -> str:
        local = f"{self.cls}.{self.name}" if self.cls else self.name
        return f"{self.module}::{local}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.qualname})"


class _ModuleIndex:
    """Per-module lookup tables: functions, classes, import bindings."""

    def __init__(self, module: str, tree: ast.Module, path: str):
        self.module = module
        self.path = path
        self.functions: Dict[str, FunctionInfo] = {}
        self.methods: Dict[Tuple[str, str], FunctionInfo] = {}
        self.bases: Dict[str, List[str]] = {}
        #: local name -> (module, attribute-or-None).  ``attribute`` None
        #: means the binding is the module itself (``import x as y``).
        self.imports: Dict[str, Tuple[str, Optional[str]]] = {}
        self._index(tree)

    def _index(self, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = FunctionInfo(
                    self.module, None, node.name, node, self.path
                )
            elif isinstance(node, ast.ClassDef):
                self.bases[node.name] = [
                    base.id for base in node.bases if isinstance(base, ast.Name)
                ]
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self.methods[(node.name, item.name)] = FunctionInfo(
                            self.module, node.name, item.name, item, self.path
                        )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name,
                        None,
                    )
            elif isinstance(node, ast.ImportFrom):
                target = self._resolve_from(node)
                if target is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.imports[alias.asname or alias.name] = (target, alias.name)

    def _resolve_from(self, node: ast.ImportFrom) -> Optional[str]:
        """Absolute module a ``from ... import`` pulls names out of."""
        if node.level == 0:
            return node.module
        # Relative: strip ``level`` trailing components off this module's
        # dotted name (the module itself counts as one).
        parts = self.module.split(".")
        if node.level > len(parts):
            return None
        base = parts[: len(parts) - node.level]
        if node.module:
            base += node.module.split(".")
        return ".".join(base) if base else None


class CallGraph:
    """Static call resolution across a linted file set.

    Build with :func:`build_call_graph`; query with :meth:`resolve` (one
    call expression → one :class:`FunctionInfo` or None) and
    :meth:`calls_matching` (does this function, within ``max_depth``
    resolved hops, make a call the predicate accepts?).
    """

    def __init__(self) -> None:
        self._modules: Dict[str, _ModuleIndex] = {}
        #: def-node id -> FunctionInfo, for locating the enclosing function.
        self._by_node: Dict[int, FunctionInfo] = {}

    # -- construction ---------------------------------------------------
    def add_module(self, module: str, tree: ast.Module, path: str) -> None:
        index = _ModuleIndex(module, tree, path)
        self._modules[module] = index
        for info in index.functions.values():
            self._by_node[id(info.node)] = info
        for info in index.methods.values():
            self._by_node[id(info.node)] = info

    def modules(self) -> List[str]:
        return sorted(self._modules)

    def function_for_node(self, node: ast.AST) -> Optional[FunctionInfo]:
        """The indexed function a ``FunctionDef`` node belongs to."""
        return self._by_node.get(id(node))

    # -- resolution -----------------------------------------------------
    def _method(self, module: str, cls: str, name: str) -> Optional[FunctionInfo]:
        """Method lookup following same-module single-name bases."""
        index = self._modules.get(module)
        seen = set()
        queue = [cls]
        while queue and index is not None:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = index.methods.get((current, name))
            if info is not None:
                return info
            queue.extend(index.bases.get(current, []))
        return None

    def resolve(
        self,
        call: ast.Call,
        module: str,
        cls: Optional[str] = None,
    ) -> Optional[FunctionInfo]:
        """Resolve one call expression, or None when ambiguous/external.

        ``module`` is the dotted module the call appears in and ``cls``
        the lexically enclosing class (for ``self.m()`` / ``cls.m()``).
        """
        index = self._modules.get(module)
        if index is None:
            return None
        func = call.func
        if isinstance(func, ast.Name):
            info = index.functions.get(func.id)
            if info is not None:
                return info
            bound = index.imports.get(func.id)
            if bound is not None and bound[1] is not None:
                other = self._modules.get(bound[0])
                if other is not None:
                    return other.functions.get(bound[1])
            return None
        if isinstance(func, ast.Attribute):
            owner = func.value
            if isinstance(owner, ast.Name):
                if owner.id in ("self", "cls") and cls is not None:
                    return self._method(module, cls, func.attr)
                bound = index.imports.get(owner.id)
                if bound is not None and bound[1] is None:
                    other = self._modules.get(bound[0])
                    if other is not None:
                        return other.functions.get(func.attr)
        return None

    # -- interprocedural queries ----------------------------------------
    def calls_matching(
        self,
        info: FunctionInfo,
        predicate: Callable[[ast.Call, "CallGraph"], bool],
        max_depth: int = 1,
        _seen: Optional[set] = None,
    ) -> Optional[ast.Call]:
        """First call in ``info`` (or its resolved helpers, up to
        ``max_depth`` hops further) that satisfies ``predicate``.

        Depth 0 inspects only the function body; depth 1 additionally
        inspects the bodies of helpers the body resolvably calls, and so
        on.  Recursion through cycles is cut by the visited set.
        """
        seen = _seen if _seen is not None else set()
        if info.qualname in seen:
            return None
        seen.add(info.qualname)
        for call in walk_calls(info.node):
            if predicate(call, self):
                return call
            if max_depth > 0:
                target = self.resolve(call, info.module, info.cls)
                if target is not None:
                    hit = self.calls_matching(
                        target, predicate, max_depth - 1, seen
                    )
                    if hit is not None:
                        # Report the *call site* in the asking function,
                        # not the buried line inside the helper.
                        return call
        return None


def walk_calls(node: ast.AST) -> Iterator[ast.Call]:
    """Every call expression lexically inside ``node``, nested defs included."""
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            yield child


def build_call_graph(
    sources: Sequence[Tuple[str, ast.Module]],
) -> CallGraph:
    """Index ``(path, parsed tree)`` pairs into a :class:`CallGraph`."""
    graph = CallGraph()
    for path, tree in sources:
        graph.add_module(module_name_for(path), tree, path)
    return graph
