"""Unit tests for the whole-program index behind the protocol verifier."""

import ast
import textwrap

from repro.check.callgraph import ProjectIndex, module_name_of


def index_of(**modules: str) -> ProjectIndex:
    """Build a ProjectIndex from ``name=source`` keyword modules.

    Module ``pkg_mod`` becomes path ``src/pkg/mod.py`` (underscore is the
    package separator) so import resolution has real dotted names to
    chew on.
    """
    trees = {}
    for name, source in modules.items():
        path = "src/" + name.replace("_", "/") + ".py"
        trees[path] = ast.parse(textwrap.dedent(source), filename=path)
    return ProjectIndex(trees)


class TestModuleNames:
    def test_src_rooted(self):
        assert module_name_of("src/repro/parallel/prna.py") == (
            "repro.parallel.prna"
        )

    def test_init_collapses_to_package(self):
        assert module_name_of("src/repro/check/__init__.py") == "repro.check"

    def test_no_src_component(self):
        assert module_name_of("snippets/demo.py") == "snippets.demo"


class TestFunctionIndex:
    def test_module_functions_and_methods(self):
        index = index_of(
            pkg_a="""
            def helper(x):
                return x

            class Table:
                def store(self, i):
                    return i
            """
        )
        assert "pkg.a.helper" in index.functions
        assert "pkg.a.Table.store" in index.functions
        assert index.functions["pkg.a.Table.store"].class_name == "Table"

    def test_entry_points_are_comm_functions(self):
        index = index_of(
            pkg_a="""
            def run(comm, x):
                return x

            def pure(x):
                return x

            class C:
                def method(self, comm):
                    return comm
            """
        )
        assert [e.qualname for e in index.entry_points()] == ["pkg.a.run"]


class TestCallResolution:
    def test_local_call(self):
        index = index_of(
            pkg_a="""
            def helper(x):
                return x

            def run(comm):
                return helper(comm)
            """
        )
        module = index.modules["src/pkg/a.py"]
        call = ast.parse("helper(1)").body[0].value
        assert index.resolve_call(call, module).qualname == "pkg.a.helper"

    def test_from_import_call(self):
        index = index_of(
            pkg_a="""
            def helper(x):
                return x
            """,
            pkg_b="""
            from pkg.a import helper

            def run(comm):
                return helper(comm)
            """,
        )
        module = index.modules["src/pkg/b.py"]
        call = ast.parse("helper(1)").body[0].value
        assert index.resolve_call(call, module).qualname == "pkg.a.helper"

    def test_module_attribute_call(self):
        index = index_of(
            pkg_a="""
            def helper(x):
                return x
            """,
            pkg_b="""
            import pkg.a as a

            def run(comm):
                return a.helper(comm)
            """,
        )
        module = index.modules["src/pkg/b.py"]
        call = ast.parse("a.helper(1)").body[0].value
        assert index.resolve_call(call, module).qualname == "pkg.a.helper"

    def test_self_method_call(self):
        index = index_of(
            pkg_a="""
            class Comm:
                def _barrier(self):
                    return None

                def Allreduce(self, buf):
                    self._barrier()
            """
        )
        module = index.modules["src/pkg/a.py"]
        call = ast.parse("self._barrier()").body[0].value
        resolved = index.resolve_call(call, module, class_name="Comm")
        assert resolved.qualname == "pkg.a.Comm._barrier"

    def test_unknown_receiver_stays_unresolved(self):
        index = index_of(pkg_a="def run(comm):\n    return comm\n")
        module = index.modules["src/pkg/a.py"]
        call = ast.parse("mystery.helper(1)").body[0].value
        assert index.resolve_call(call, module) is None


class TestConstantEnvironment:
    def test_augassign_folds(self):
        index = index_of(
            pkg_a="""
            TAG = 0x100
            TAG += 2
            """
        )
        assert index.modules["src/pkg/a.py"].constants["TAG"] == 0x102

    def test_augassign_with_dynamic_delta_widens(self):
        index = index_of(
            pkg_a="""
            TAG = 0x100
            TAG += some_value
            """
        )
        assert "TAG" not in index.modules["src/pkg/a.py"].constants

    def test_tuple_unpacking(self):
        index = index_of(pkg_a="A, B = 5, 9\n")
        constants = index.modules["src/pkg/a.py"].constants
        assert constants == {"A": 5, "B": 9}

    def test_class_level_constants(self):
        index = index_of(
            pkg_a="""
            class Comm:
                _BARRIER_TAG = 0x7FF0
            """
        )
        assert index.modules["src/pkg/a.py"].constants["_BARRIER_TAG"] == 0x7FF0

    def test_cross_module_import(self):
        index = index_of(
            pkg_a="TAG_PING = 17\n",
            pkg_b="from pkg.a import TAG_PING\n",
        )
        env = index.constant_env(index.modules["src/pkg/b.py"])
        assert env["TAG_PING"] == 17

    def test_bools_are_not_tag_constants(self):
        index = index_of(pkg_a="FLAG = True\n")
        assert "FLAG" not in index.modules["src/pkg/a.py"].constants
