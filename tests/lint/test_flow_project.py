"""The flow layer's module table, call graph, and entry-point discovery.

Everything here analyses throwaway package trees on disk *without
importing them* — the linter's own contract — via the ``make_tree``
fixture.
"""

import ast

from repro.lint.engine import iter_python_files
from repro.lint.flow import build_project, module_name_for, summarize_tree


def project_over(root):
    # Like the lint engine: a file that does not parse maps to None.
    trees = {}
    for path in iter_python_files([root]):
        try:
            trees[path] = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError:
            trees[path] = None
    return build_project(trees)


class TestModuleNaming:
    def test_names_walk_up_through_packages(self, make_tree):
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/sub/__init__.py": "",
            "pkg/sub/mod.py": "X = 1\n",
        })
        assert module_name_for(root / "pkg/sub/mod.py") == "pkg.sub.mod"
        assert module_name_for(root / "pkg/sub/__init__.py") == "pkg.sub"

    def test_scripts_outside_packages_use_their_stem(self, make_tree):
        root = make_tree({"standalone.py": "X = 1\n"})
        assert module_name_for(root / "standalone.py") == "standalone"


class TestImportResolution:
    def test_relative_imports_resolve_to_absolute_targets(self, make_tree):
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/a.py": "def helper():\n    return 1\n",
            "pkg/sub/__init__.py": "",
            "pkg/sub/b.py": (
                "from ..a import helper\n"
                "from . import c\n"
                "def caller():\n"
                "    return helper()\n"
            ),
            "pkg/sub/c.py": "Y = 2\n",
        })
        project = project_over(root)
        summary = project.modules["pkg.sub.b"]
        assert summary.imports["helper"] == "pkg.a.helper"
        assert summary.imports["c"] == "pkg.sub.c"

    def test_reexport_chasing_through_package_init(self, make_tree):
        # from pkg import helper, where pkg/__init__ re-exports pkg.a.helper
        root = make_tree({
            "pkg/__init__.py": "from .a import helper\n",
            "pkg/a.py": "def helper():\n    return 1\n",
            "user.py": (
                "from pkg import helper\n"
                "def use():\n"
                "    return helper()\n"
            ),
        })
        project = project_over(root)
        assert project.resolve_function("pkg.helper") == "pkg.a.helper"
        assert project.call_graph()["user.use"] == {"pkg.a.helper"}

    def test_lazy_export_table_is_read_as_reexports(self, make_tree):
        # A package that declares its exports through repro.lazy.attach
        # re-exports them as ``from .mod import work`` would.
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/a.py": "def helper():\n    return 1\n",
            "pkg/sub/__init__.py": (
                "from repro.lazy import attach\n"
                "__getattr__, __dir__, __all__ = attach(__name__, {\n"
                "    '.': ('mod',),\n"
                "    '.mod': ('work',),\n"
                "    '..a': ('helper',),\n"
                "})\n"
            ),
            "pkg/sub/mod.py": "def work():\n    return 0\n",
            "user.py": (
                "from pkg.sub import helper, mod, work\n"
                "def use():\n"
                "    return helper() + work() + mod.work()\n"
            ),
        })
        project = project_over(root)
        assert project.modules["pkg.sub"].imports == {
            "attach": "repro.lazy.attach",
            "mod": "pkg.sub.mod",
            "work": "pkg.sub.mod.work",
            "helper": "pkg.a.helper",
        }
        assert project.call_graph()["user.use"] == {
            "pkg.a.helper", "pkg.sub.mod.work",
        }

    def test_function_level_imports_bind_to_their_targets(self, make_tree):
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/low.py": (
                "STATE = []\n"
                "class Kernel:\n"
                "    def run(self):\n"
                "        return 0\n"
                "def work():\n"
                "    return 0\n"
            ),
            "pkg/high.py": (
                "def drive():\n"
                "    from .low import Kernel, work\n"
                "    import pkg.low as low\n"
                "    low.STATE.append(1)\n"
                "    kernel = Kernel()\n"
                "    return kernel.run() + work() + low.work()\n"
            ),
        })
        project = project_over(root)
        assert project.call_graph()["pkg.high.drive"] == {
            "pkg.low.Kernel.run", "pkg.low.work",
        }
        drive = project.modules["pkg.high"].functions["drive"]
        assert [w.target for w in drive.writes] == ["pkg.low.STATE"]


class TestCallGraph:
    def test_cross_module_edges_resolve(self, make_tree):
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/low.py": "def work():\n    return 0\n",
            "pkg/high.py": (
                "from .low import work\n"
                "def drive():\n"
                "    return work()\n"
            ),
        })
        graph = project_over(root).call_graph()
        assert graph["pkg.high.drive"] == {"pkg.low.work"}

    def test_method_calls_resolve_through_constructed_type(self, make_tree):
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/engine.py": (
                "class Engine:\n"
                "    def run(self):\n"
                "        return self.step()\n"
                "    def step(self):\n"
                "        return 1\n"
            ),
            "pkg/use.py": (
                "from .engine import Engine\n"
                "def main():\n"
                "    e = Engine()\n"
                "    return e.run()\n"
            ),
        })
        graph = project_over(root).call_graph()
        assert "pkg.engine.Engine.run" in graph["pkg.use.main"]
        # self.step() resolves within the enclosing class.
        assert "pkg.engine.Engine.step" in graph["pkg.engine.Engine.run"]

    def test_inherited_methods_resolve_via_base_classes(self, make_tree):
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/base.py": (
                "class Base:\n"
                "    def shared(self):\n"
                "        return 1\n"
            ),
            "pkg/child.py": (
                "from .base import Base\n"
                "class Child(Base):\n"
                "    pass\n"
                "def main():\n"
                "    c = Child()\n"
                "    return c.shared()\n"
            ),
        })
        project = project_over(root)
        assert (
            project.resolve_function("pkg.child.Child.shared")
            == "pkg.base.Base.shared"
        )
        assert "pkg.base.Base.shared" in project.call_graph()["pkg.child.main"]

    def test_reachability_records_a_root_per_function(self, make_tree):
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/m.py": (
                "def a():\n    return b()\n"
                "def b():\n    return c()\n"
                "def c():\n    return 1\n"
                "def unrelated():\n    return 2\n"
            ),
        })
        project = project_over(root)
        origin = project.reachable_from(["pkg.m.a"])
        assert origin == {
            "pkg.m.a": "pkg.m.a",
            "pkg.m.b": "pkg.m.a",
            "pkg.m.c": "pkg.m.a",
        }


class TestEntryPointDiscovery:
    def test_workunit_call_sites_register_nothing(self, make_tree):
        """Only the marker registers: ``WorkUnit`` refuses an unmarked
        ``fn`` at run time, so a call site adds no entry point."""
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/units.py": (
                "from repro.exec.plan import WorkUnit\n"
                "def kw_unit(x):\n    return x\n"
                "def pos_unit(x):\n    return x\n"
                "def build():\n"
                "    return [\n"
                "        WorkUnit(index=0, fn=kw_unit, args=(1,)),\n"
                "        WorkUnit(1, pos_unit, (2,), {}, 'p'),\n"
                "    ]\n"
            ),
        })
        assert project_over(root).entry_points() == {}

    def test_enumerate_and_marker_registration(self, make_tree):
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/units.py": (
                "from repro.exec import ShardPlan, shard_unit\n"
                "def grid_point(x):\n    return x\n"
                "@shard_unit\n"
                "def marked(x):\n    return x\n"
                "def build():\n"
                "    return ShardPlan.enumerate(grid_point, [(1,), (2,)])\n"
            ),
        })
        entries = project_over(root).entry_points()
        assert set(entries) == {"pkg.units.marked"}


class TestParseErrors:
    def test_broken_files_degrade_to_empty_summaries(self, make_tree):
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/broken.py": "def nope(:\n",
            "pkg/fine.py": "def ok():\n    return 1\n",
        })
        project = project_over(root)
        broken = project.modules["pkg.broken"]
        assert not broken.functions and not broken.imports
        assert "pkg.fine.ok" in project.functions


class TestSummarizeSource:
    def test_module_body_gets_a_pseudo_function(self):
        summary = summarize_tree(
            ast.parse("VALUES = [x for x in {1, 2, 3}]\n"), "m.py", "m"
        )
        body = summary.functions["<module>"]
        assert [event.kind for event in body.iters] == ["set"]
