"""The interprocedural call graph: conservative, unambiguous resolution
across the linted file set — and the RN004 false-negative shapes it kills."""

import ast

from repro.analysis.callgraph import (
    CallGraph,
    build_call_graph,
    module_name_for,
)
from repro.analysis.lint import lint_source

MAIN = '''
from repro.pkg.helpers import compute, misc as other

def top():
    return compute(1)

class Base:
    def shared(self):
        return compute(2)

class Model(Base):
    def _score(self, x):
        return compute(x)

    def run(self, x):
        return self._score(x)

    def inherited(self):
        return self.shared()

def mutual_a():
    return mutual_b()

def mutual_b():
    return mutual_a()
'''

HELPERS = '''
def compute(x):
    return deep(x)

def deep(x):
    return x + 1

def misc(x):
    return x
'''


def graph():
    return build_call_graph(
        [
            ("src/repro/pkg/main.py", ast.parse(MAIN)),
            ("src/repro/pkg/helpers.py", ast.parse(HELPERS)),
        ]
    )


def first_call(g, module, name, cls=None):
    index = g._modules[module]
    info = index.methods[(cls, name)] if cls else index.functions[name]
    return info, next(c for c in ast.walk(info.node) if isinstance(c, ast.Call))


class TestModuleNames:
    def test_src_layout(self):
        assert module_name_for("src/repro/obs/server.py") == "repro.obs.server"

    def test_package_init(self):
        assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"

    def test_fallback_stem(self):
        assert module_name_for("scratch/example.py") == "example"


class TestResolution:
    def test_bare_name_same_module(self):
        g = graph()
        info, call = first_call(g, "repro.pkg.main", "mutual_a")
        target = g.resolve(call, info.module)
        assert target is not None and target.qualname == "repro.pkg.main::mutual_b"

    def test_imported_name_cross_module(self):
        g = graph()
        info, call = first_call(g, "repro.pkg.main", "top")
        target = g.resolve(call, info.module)
        assert target is not None and target.qualname == "repro.pkg.helpers::compute"

    def test_self_method(self):
        g = graph()
        info, call = first_call(g, "repro.pkg.main", "run", cls="Model")
        target = g.resolve(call, info.module, info.cls)
        assert target is not None and target.qualname == "repro.pkg.main::Model._score"

    def test_inherited_method_through_base(self):
        g = graph()
        info, call = first_call(g, "repro.pkg.main", "inherited", cls="Model")
        target = g.resolve(call, info.module, info.cls)
        assert target is not None and target.qualname == "repro.pkg.main::Base.shared"

    def test_unknown_name_unresolved(self):
        g = graph()
        call = ast.parse("mystery()").body[0].value
        assert g.resolve(call, "repro.pkg.main") is None


class TestCallsMatching:
    def is_deep(self, call, _graph):
        return isinstance(call.func, ast.Name) and call.func.id == "deep"

    def test_depth_zero_sees_own_body_only(self):
        g = graph()
        info, _ = first_call(g, "repro.pkg.main", "top")
        assert g.calls_matching(info, self.is_deep, max_depth=0) is None

    def test_one_hop_reports_call_site_in_asker(self):
        g = graph()
        info, call = first_call(g, "repro.pkg.helpers", "compute")
        # compute() itself calls deep() directly: hit is the direct call.
        assert g.calls_matching(info, self.is_deep, max_depth=0) is call
        # top() -> compute() -> deep(): the reported node is top's own
        # call to compute, not the line buried inside the helper.
        top_info, top_call = first_call(g, "repro.pkg.main", "top")
        assert g.calls_matching(top_info, self.is_deep, max_depth=1) is top_call

    def test_recursion_cycle_terminates(self):
        g = graph()
        info, _ = first_call(g, "repro.pkg.main", "mutual_a")
        assert g.calls_matching(info, lambda c, _g: False, max_depth=10) is None


class TestRN004Interprocedural:
    def test_helper_indirection_flagged(self):
        source = (
            "class Model:\n"
            "    def _score(self, docs):\n"
            "        return self.emissions(docs)\n"
            "    def predict(self, docs):\n"
            "        return self._score(docs)\n"
        )
        findings = lint_source(source)
        assert [f.code for f in findings] == ["RN004"]
        assert "_score" in findings[0].message

    def test_internally_guarded_helper_clean(self):
        source = (
            "class Model:\n"
            "    def _score(self, docs):\n"
            "        with no_grad():\n"
            "            return self.emissions(docs)\n"
            "    def predict(self, docs):\n"
            "        return self._score(docs)\n"
        )
        assert lint_source(source) == []

    def test_guarded_call_site_clean(self):
        source = (
            "class Model:\n"
            "    def _score(self, docs):\n"
            "        return self.emissions(docs)\n"
            "    def predict(self, docs):\n"
            "        with no_grad():\n"
            "            return self._score(docs)\n"
        )
        assert lint_source(source) == []
