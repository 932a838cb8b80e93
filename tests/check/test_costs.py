"""Static cost extraction and the COST0xx contract audit.

The extractor's degrees are pinned against the shipped kernels (the
ground truth the registry contracts declare), and the audit's two rules
are exercised with deliberately wrong declarations.
"""

import ast
import os
import textwrap

import pytest

from repro.check.callgraph import ProjectIndex
from repro.check.costs import analyze_costs, extract_degree
from repro.runtime.registry import (
    ENGINE_NAMES,
    CostContract,
    cost_contract_for,
    kernel_costs,
)


def index_of(**modules: str) -> ProjectIndex:
    trees = {}
    for name, source in modules.items():
        path = "src/" + name.replace("__", "/") + ".py"
        trees[path] = ast.parse(textwrap.dedent(source), filename=path)
    return ProjectIndex(trees)


def degree_of(index: ProjectIndex, func_name: str) -> int:
    for info in index.functions.values():
        if info.node.name == func_name:
            return extract_degree(info, index).degree
    raise AssertionError(f"function {func_name} not indexed")


def shipped_index() -> ProjectIndex:
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        "src",
        "repro",
    )
    if not os.path.isdir(src):
        pytest.skip("source tree not available (installed package)")
    modules = {}
    for root, dirs, names in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as handle:
                modules[path] = ast.parse(handle.read(), filename=path)
    return ProjectIndex(modules)


class TestDegreeExtraction:
    def test_scalar_loop_nest(self):
        index = index_of(
            kern="""
            def kernel(rows, cols):
                total = 0
                for r in range(rows):
                    for c in range(cols):
                        total += r * c
                return total
            """
        )
        assert degree_of(index, "kernel") == 2

    def test_constant_range_is_free(self):
        # range(4) row-kernel unrolling is a constant factor, not a
        # degree — the vectorized engine depends on this.
        index = index_of(
            kern="""
            import numpy as np

            def kernel(n):
                rows = np.zeros(n)
                for k in range(4):
                    rows = rows + k
                return rows
            """
        )
        assert degree_of(index, "kernel") == 1

    def test_vector_op_inside_loop(self):
        index = index_of(
            kern="""
            import numpy as np

            def kernel(n_rows, n_cols):
                out = np.zeros(n_cols)
                for r in range(n_rows):
                    out = np.maximum(out, np.zeros(n_cols))
                return out
            """
        )
        assert degree_of(index, "kernel") == 2

    def test_resolvable_call_inlines_callee_degree(self):
        index = index_of(
            kern="""
            import numpy as np

            def inner(n):
                return np.zeros((n, n)) + 1

            def driver(n, chunks):
                while chunks > 0:
                    inner(n)
                    chunks -= 1
            """
        )
        assert degree_of(index, "inner") == 2
        assert degree_of(index, "driver") == 3

    def test_recursion_does_not_loop(self):
        index = index_of(
            kern="""
            def kernel(n):
                if n <= 0:
                    return 0
                return kernel(n - 1)
            """
        )
        assert degree_of(index, "kernel") == 0


class TestShippedKernelDegrees:
    """Ground truth: every registry contract matches its kernel."""

    def test_every_contract_degree_matches_extraction(self):
        index = shipped_index()
        assert analyze_costs(index) == []

    def test_every_engine_has_a_contract(self):
        for engine in ENGINE_NAMES:
            assert cost_contract_for(f"engine:{engine}") is not None, (
                f"engine {engine!r} lacks a CostContract"
            )

    def test_contract_inventory(self):
        keys = {contract.key for contract in kernel_costs()}
        assert {"engine:python", "engine:vectorized",
                "engine:batched"} <= keys
        assert cost_contract_for("engine:batched").entry.endswith(
            "._segmented_tabulate"
        )

    def test_batch_driver_is_degree_3_hence_not_declared(self):
        # The chunked batch driver re-walks columns per chunk: extracting
        # it as degree 3 is correct, which is exactly why the batched
        # contract sits on the segmented kernel instead.
        index = shipped_index()
        assert degree_of(index, "tabulate_slices_batched") >= 3


class TestContractAudit:
    KERNEL = """
        import numpy as np

        def kernel(a, n):
            out = np.zeros((n, n))
            return out + a
        """

    def test_wrong_degree_is_cost001(self):
        index = index_of(fault__kern=self.KERNEL)
        bad = CostContract(key="kernel:k", entry="fault.kern.kernel",
                           degree=3, polynomial="n^3")
        findings = analyze_costs(index, declarations=[bad])
        assert [f.rule for f in findings] == ["COST001"]
        assert "degree 3" in findings[0].message
        assert "extracted degree" in findings[0].message

    def test_matching_degree_is_clean(self):
        index = index_of(fault__kern=self.KERNEL)
        good = CostContract(key="kernel:k", entry="fault.kern.kernel",
                            degree=2, polynomial="n^2")
        assert analyze_costs(index, declarations=[good]) == []

    def test_unresolvable_entry_is_cost002(self):
        index = index_of(fault__kern=self.KERNEL)
        missing = CostContract(key="kernel:gone", entry="no.such.entry",
                               degree=2, polynomial="n^2")
        findings = analyze_costs(index, declarations=[missing])
        assert [f.rule for f in findings] == ["COST002"]

    def test_missing_engine_contract_is_cost002(self, monkeypatch):
        # Drop one engine's contract from the registry: auditing the
        # shipped tree must now flag the uncovered engine.
        import repro.runtime.registry as registry

        trimmed = {
            key: value
            for key, value in registry._COSTS.items()
            if key != "engine:python"
        }
        monkeypatch.setattr(registry, "_COSTS", trimmed)
        index = shipped_index()
        findings = analyze_costs(index)
        assert any(
            f.rule == "COST002" and "'python'" in f.message
            for f in findings
        )

    def test_no_registry_in_tree_no_default_audit(self):
        # Checking an unrelated snippet must not drag the shipped
        # contracts in (protocol-verifier gating pattern).
        index = index_of(fault__kern=self.KERNEL)
        assert analyze_costs(index) == []
