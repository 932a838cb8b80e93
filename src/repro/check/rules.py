"""Per-module AST rules for the static pass.

The two rules here check properties no interprocedural pass covers; both
are deliberately *lexical* and tuned so that false positives are rare
enough to handle with ``# noqa`` comments:

* **SPMD003** — a subscript store into (or ``.store()`` on) a name
  tainted by ``DenseMemoTable.wrap`` (directly, or through a helper the
  call graph proved returns such a handle) whose index is not derived
  from an owned-partition source (``partition.tasks_of``, a name
  containing ``owned``, a loop over / membership test against such a
  name).  A wrapped table is shared with other ranks, so a write outside
  the rank's partition races their writes to the same cells.
* **ARCH001** — direct construction of run-scoped machinery
  (communicators, backend launchers, ``Tracer``, wrapped memo tables)
  outside :mod:`repro.runtime.context`, the layer that owns them.
  The defining substrate modules (``repro/mpi/*``, ``repro/obs/tracer.py``,
  ``repro/check/sanitizer.py``) are exempt; the context module itself
  carries the single sanctioned ``# noqa: ARCH001`` on its factory table.

Collective agreement, tag matching and dtype overflow are proved by the
protocol (:mod:`repro.check.protocol`) and dataflow
(:mod:`repro.check.dataflow`) passes.
"""

from __future__ import annotations

import ast
import os

from repro.check.callgraph import _receiver_root
from repro.check.findings import Finding

__all__ = ["analyze_module"]


# ----------------------------------------------------------------------
# SPMD003 — writes through wrapped memo handles outside the owned partition
# ----------------------------------------------------------------------
def _expr_names(node: ast.AST) -> set[str]:
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _has_shm_source(
    node: ast.AST, factories: frozenset[str] | set[str] = frozenset()
) -> bool:
    """Whether *node* produces a wrapped (shared) memo handle.

    *factories* extends the lexical source (``DenseMemoTable.wrap``) with
    project-level helper functions the call graph proved to return such
    handles, so a table obtained through ``make_table(buffer)`` in
    another function is still tracked.
    """
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        if isinstance(sub.func, ast.Attribute):
            if sub.func.attr == "wrap" and "DenseMemoTable" in ast.unparse(
                sub.func.value
            ):
                return True
            if sub.func.attr in factories:
                return True
        elif isinstance(sub.func, ast.Name) and sub.func.id in factories:
            return True
    return False


def _has_owned_source(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "owned" in sub.id:
            return True
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            if sub.func.attr == "tasks_of":
                return True
    return False


class _ShmWriteChecker:
    """Forward may-taint pass over one function (or the module body)."""

    def __init__(
        self,
        path: str,
        findings: list[Finding],
        factories: frozenset[str] = frozenset(),
    ):
        self._path = path
        self._findings = findings
        self._factories = factories
        self.shm: set[str] = set()
        self.owned: set[str] = set()

    def _owned_expr(self, node: ast.AST) -> bool:
        return bool(self.owned & _expr_names(node)) or _has_owned_source(node)

    def _shm_expr(self, node: ast.AST) -> bool:
        return bool(self.shm & _expr_names(node)) or _has_shm_source(
            node, self._factories
        )

    def _taint_targets(self, targets: list[ast.expr], value: ast.expr) -> None:
        shm = self._shm_expr(value)
        owned = self._owned_expr(value)
        for target in targets:
            names = (
                [target]
                if isinstance(target, ast.Name)
                else [e for e in ast.walk(target) if isinstance(e, ast.Name)]
            )
            for name in names:
                if not isinstance(name, ast.Name):
                    continue
                if shm:
                    self.shm.add(name.id)
                if owned or "owned" in name.id:
                    self.owned.add(name.id)

    def _check_store(self, target: ast.expr) -> None:
        if not isinstance(target, ast.Subscript):
            return
        root = _receiver_root(target.value)
        if root is None or root not in self.shm:
            return
        if self._owned_expr(target.slice):
            return
        self._findings.append(
            Finding(
                "SPMD003",
                self._path,
                target.lineno,
                target.col_offset,
                f"write to wrapped memo table '{root}' with an index not "
                "derived from the owned partition — the cell belongs to "
                "another rank, whose own write races this one",
            )
        )

    def _check_store_call(self, call: ast.Call) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr != "store":
            return
        root = (
            func.value.id if isinstance(func.value, ast.Name) else None
        )
        if root is None or root not in self.shm:
            return
        if any(self._owned_expr(arg) for arg in call.args):
            return
        self._findings.append(
            Finding(
                "SPMD003",
                self._path,
                call.lineno,
                call.col_offset,
                f"'{root}.store(...)' on a wrapped memo table with "
                "indices not derived from the owned partition",
            )
        )

    def run(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._taint_targets(stmt.targets, stmt.value)
            for target in stmt.targets:
                self._check_store(target)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._taint_targets([stmt.target], stmt.value)
            self._check_store(stmt.target)
        elif isinstance(stmt, ast.AugAssign):
            self._check_store(stmt.target)
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            self._check_store_call(stmt.value)
        elif isinstance(stmt, ast.For):
            if self._owned_expr(stmt.iter):
                self._taint_targets([stmt.target], stmt.iter)
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.If):
            guard_name = self._membership_guard(stmt.test)
            added = guard_name is not None and guard_name not in self.owned
            if added:
                self.owned.add(guard_name)  # type: ignore[arg-type]
            self.run(stmt.body)
            if added:
                self.owned.discard(guard_name)  # type: ignore[arg-type]
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.With):
            self.run(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.run(stmt.body)
            for handler in stmt.handlers:
                self.run(handler.body)
            self.run(stmt.orelse)
            self.run(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = _ShmWriteChecker(self._path, self._findings,
                                      self._factories)
            nested.owned = {
                arg.arg
                for arg in stmt.args.args + stmt.args.kwonlyargs
                if "owned" in arg.arg
            }
            nested.run(stmt.body)

    @staticmethod
    def _membership_guard(test: ast.expr) -> str | None:
        """``if b in owned_set:`` -> ``"b"`` (taint b inside the body)."""
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.In)
            and isinstance(test.left, ast.Name)
            and _has_owned_source(test.comparators[0])
        ):
            return test.left.id
        return None


def _check_shm_writes(
    tree: ast.Module,
    path: str,
    findings: list[Finding],
    factories: frozenset[str] = frozenset(),
) -> None:
    checker = _ShmWriteChecker(path, findings, factories)
    checker.run(tree.body)


# ----------------------------------------------------------------------
# ARCH001 — runtime machinery constructed outside repro.runtime.context
# ----------------------------------------------------------------------
#: Factories whose *call* marks a construction the execution context owns.
_ARCH_FACTORIES = frozenset(
    {
        "Tracer",
        "SanitizedCommunicator",
        "SelfCommunicator",
        "ThreadCommunicator",
        "ProcessCommunicator",
        "run_threaded",
        "run_multiprocess",
    }
)

#: Modules allowed to construct freely: the substrate that *defines* the
#: machinery.  ``repro/runtime/context.py`` is deliberately NOT here — it
#: funnels every construction through one ``# noqa: ARCH001`` line.
_ARCH_EXEMPT_SUFFIXES = (
    "repro/obs/tracer.py",
    "repro/check/sanitizer.py",
)


def _arch_exempt(path: str) -> bool:
    norm = path.replace(os.sep, "/")
    if any(norm.endswith(suffix) for suffix in _ARCH_EXEMPT_SUFFIXES):
        return True
    return "/mpi/" in norm


def _arch_flagged_name(call: ast.Call) -> str | None:
    func = call.func
    name = (
        func.attr
        if isinstance(func, ast.Attribute)
        else func.id
        if isinstance(func, ast.Name)
        else None
    )
    if name in _ARCH_FACTORIES:
        return name
    if (
        name == "wrap"
        and isinstance(func, ast.Attribute)
        and "DenseMemoTable" in ast.unparse(func.value)
    ):
        return "DenseMemoTable.wrap"
    return None


def _check_architecture(
    tree: ast.Module, path: str, findings: list[Finding]
) -> None:
    if _arch_exempt(path):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        flagged = _arch_flagged_name(node)
        if flagged is None:
            continue
        findings.append(
            Finding(
                "ARCH001",
                path,
                node.lineno,
                node.col_offset,
                f"direct construction of runtime machinery ({flagged!r}) "
                "outside repro.runtime.context — route through "
                "ExecutionContext (or its sanitize_communicator/"
                "result_memo helpers) so plans, stats and sanitizers "
                "stay consistent",
            )
        )


# ----------------------------------------------------------------------
def analyze_module(
    tree: ast.Module,
    path: str,
    *,
    shm_factories: frozenset[str] = frozenset(),
) -> list[Finding]:
    """Run the per-module rules (SPMD003, ARCH001) over one parsed module.

    *shm_factories* widens SPMD003's taint sources with helper functions
    the call graph proved to return wrapped memo handles.
    """
    findings: list[Finding] = []
    _check_shm_writes(tree, path, findings, shm_factories)
    _check_architecture(tree, path, findings)
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings
