"""AST rules for the SPMD static pass.

Each rule is a module-level analysis over one parsed file; all of them
are deliberately *lexical* (no inter-procedural dataflow) and tuned so that
false positives are rare enough to handle with ``# noqa`` comments:

* **SPMD001** — a collective call (``barrier``/``bcast``/``allreduce``/
  ``Allreduce``/``allgather``/``gather``/``scatter``/``reduce``/
  ``allocate_shared``) lexically nested under an ``if``/``while`` whose
  test mentions a rank (``comm.rank``, ``self._rank``, a bare ``rank``).
  This is the MPI-Checker "collective in rank-dependent control flow"
  check: a rank that skips the collective deadlocks every peer.
* **SPMD002** — a ``send``/``isend`` whose tag resolves to a constant
  (literal, module constant, or class-attribute constant) with no
  ``recv``-family call in the same module matching it.  A receive with a
  tag the analysis cannot resolve matches everything (conservative).
* **SPMD003** — a subscript store into (or ``.store()`` on) a name
  tainted by ``allocate_shared``/``DenseMemoTable.wrap`` whose index is
  not derived from an owned-partition source (``partition.tasks_of``, a
  name containing ``owned``, a loop over / membership test against such a
  name).  Outside its partition a rank races the Allreduce window.
* **DTYPE101** (lexical form; formerly SPMD004) — an array created with
  an explicit sub-64-bit integer dtype flowing into a ``tabulate_slice``
  kernel or ``DenseMemoTable``: the segmented prefix-max lift in
  :mod:`repro.core.slices` offsets segment ``s`` by ``s * stride`` and
  provably overflows narrow dtypes under the declared input bounds.  The
  ``--dataflow`` pass proves the same rule interprocedurally with
  interval arithmetic; this lexical form stays on because it is cheap
  and runs per-module.
* **ARCH001** — direct construction of run-scoped machinery
  (communicators, backend launchers, ``Tracer``, shared-memory memo
  tables) outside :mod:`repro.runtime.context`, the layer that owns them.
  The defining substrate modules (``repro/mpi/*``, ``repro/obs/tracer.py``,
  ``repro/check/sanitizer.py``) are exempt; the context module itself
  carries the single sanctioned ``# noqa: ARCH001`` on its factory table.
"""

from __future__ import annotations

import ast
import os

from repro.check.findings import Finding

__all__ = ["analyze_module"]

COLLECTIVES = frozenset(
    {
        "barrier",
        "bcast",
        "allreduce",
        "Allreduce",
        "allgather",
        "gather",
        "scatter",
        "reduce",
        "allocate_shared",
    }
)

#: Receiver roots whose methods merely *look* like collectives
#: (``np.maximum.reduce``, ``functools.reduce``, ...).
_NON_COMM_ROOTS = frozenset(
    {"np", "numpy", "functools", "operator", "itertools", "math"}
)

_SEND_METHODS = {"send": 2, "isend": 2, "_send": 2}
_RECV_METHODS = {"recv": 1, "irecv": 1, "_recv": 1, "_try_recv": 1}

_NARROW_INT_DTYPES = frozenset(
    {"int8", "int16", "int32", "uint8", "uint16", "uint32"}
)

_ARRAY_FACTORIES = frozenset(
    {"zeros", "empty", "full", "ones", "array", "asarray", "arange",
     "zeros_like", "empty_like", "full_like", "ones_like"}
)

_LIFT_SINKS = ("tabulate_slice", "tabulate_slices")


def _is_rank_name(name: str) -> bool:
    name = name.lstrip("_")
    return name == "rank" or name.endswith("_rank")


def _mentions_rank(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and _is_rank_name(sub.id):
            return True
        if isinstance(sub, ast.Attribute) and _is_rank_name(sub.attr):
            return True
    return False


def _receiver_root(node: ast.expr) -> str | None:
    """Leftmost name of an attribute chain (``a.b.c`` -> ``a``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_collective_call(call: ast.Call) -> str | None:
    """The collective's method name, or None if *call* is not one."""
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in COLLECTIVES:
        return None
    if _receiver_root(func) in _NON_COMM_ROOTS:
        return None
    return func.attr


# ----------------------------------------------------------------------
# SPMD001 — collectives under rank-dependent control flow
# ----------------------------------------------------------------------
class _RankConditionalVisitor(ast.NodeVisitor):
    def __init__(self, findings: list[Finding], path: str):
        self._findings = findings
        self._path = path
        self._depth = 0

    def _visit_scoped(self, node: ast.AST) -> None:
        # A nested def runs in a context of its caller's choosing, not of
        # the lexically enclosing conditional — reset the depth.
        saved, self._depth = self._depth, 0
        self.generic_visit(node)
        self._depth = saved

    visit_FunctionDef = _visit_scoped
    visit_AsyncFunctionDef = _visit_scoped
    visit_Lambda = _visit_scoped
    visit_ClassDef = _visit_scoped

    def _visit_conditional(self, node: ast.If | ast.While | ast.IfExp) -> None:
        self.visit(node.test)
        branches = (
            (node.body, node.orelse)
            if not isinstance(node, ast.IfExp)
            else ([node.body], [node.orelse])
        )
        rank_dependent = _mentions_rank(node.test)
        if rank_dependent:
            self._depth += 1
        for branch in branches:
            for child in branch:
                self.visit(child)
        if rank_dependent:
            self._depth -= 1

    visit_If = _visit_conditional
    visit_While = _visit_conditional
    visit_IfExp = _visit_conditional

    def visit_Call(self, node: ast.Call) -> None:
        name = _is_collective_call(node)
        if name is not None and self._depth > 0:
            self._findings.append(
                Finding(
                    "SPMD001",
                    self._path,
                    node.lineno,
                    node.col_offset,
                    f"collective '{name}' under rank-dependent control "
                    "flow — a rank that takes the other branch deadlocks "
                    "every peer at this call",
                )
            )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# SPMD002 — send tags without a matching receive
# ----------------------------------------------------------------------
def _constant_env(tree: ast.Module) -> dict[str, int]:
    """Module- and class-level integer constant bindings.

    Delegates to the project indexer's scanner, which also folds
    ``AugAssign`` updates and tuple unpacking — the patterns the original
    folder silently widened to wildcard, suppressing real tag mismatches.
    """
    from repro.check.callgraph import _scan_constants

    env: dict[str, int] = {}
    _scan_constants(tree.body, env)
    return env


def _tag_node(call: ast.Call, positional_index: int) -> ast.expr | None:
    for keyword in call.keywords:
        if keyword.arg == "tag":
            return keyword.value
    if len(call.args) > positional_index:
        return call.args[positional_index]
    return None  # defaulted tag (0)


def _resolve_tag(node: ast.expr | None, env: dict[str, int]):
    """``("const", value)``, ``("expr", text)``, or ``("dynamic", None)``."""
    if node is None:
        return ("const", 0)
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return ("const", node.value)
    if isinstance(node, ast.Name) and node.id in env:
        return ("const", env[node.id])
    if isinstance(node, ast.Attribute) and node.attr in env:
        return ("const", env[node.attr])
    # Arithmetic over resolvable pieces keeps a stable text key; anything
    # mentioning an unresolvable name is dynamic (matches everything on
    # the receive side, is skipped on the send side).
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id not in env:
            return ("dynamic", None)
        if isinstance(sub, ast.Call):
            return ("dynamic", None)
    return ("expr", ast.unparse(node))


def _check_tags(
    tree: ast.Module,
    path: str,
    findings: list[Finding],
    extra_constants: dict[str, int] | None = None,
) -> None:
    env = dict(extra_constants) if extra_constants else {}
    env.update(_constant_env(tree))
    sends: list[tuple[ast.Call, tuple]] = []
    recv_keys: set[tuple] = set()
    wildcard_recv = False
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr in _SEND_METHODS:
            key = _resolve_tag(_tag_node(node, _SEND_METHODS[func.attr]), env)
            sends.append((node, key))
        elif func.attr in _RECV_METHODS:
            key = _resolve_tag(_tag_node(node, _RECV_METHODS[func.attr]), env)
            if key[0] == "dynamic":
                wildcard_recv = True
            else:
                recv_keys.add(key)
    if wildcard_recv:
        return
    for call, key in sends:
        if key[0] != "const" or key in recv_keys:
            continue
        findings.append(
            Finding(
                "SPMD002",
                path,
                call.lineno,
                call.col_offset,
                f"send with tag {key[1]} has no matching receive tag in "
                "this module — the paired recv would block forever",
            )
        )


# ----------------------------------------------------------------------
# SPMD003 — shm-backed writes outside an owned-partition guard
# ----------------------------------------------------------------------
def _expr_names(node: ast.AST) -> set[str]:
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _has_shm_source(
    node: ast.AST, factories: frozenset[str] | set[str] = frozenset()
) -> bool:
    """Whether *node* produces an shm-backed handle.

    *factories* extends the lexical sources (``allocate_shared`` /
    ``DenseMemoTable.wrap``) with project-level helper functions the call
    graph proved to return shm handles, so a table obtained through
    ``make_table(comm, ...)`` in another function is still tracked.
    """
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        if isinstance(sub.func, ast.Attribute):
            if sub.func.attr == "allocate_shared":
                return True
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
                f"write to shared-memory-backed array '{root}' with an "
                "index not derived from the owned partition — out-of-"
                "partition writes race the shm Allreduce window",
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
                f"'{root}.store(...)' on a shared-memory-backed table with "
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
# DTYPE101 (formerly SPMD004) — narrow dtypes into lift-based kernels
# ----------------------------------------------------------------------
def _narrow_dtype_of(call: ast.Call) -> str | None:
    """The narrow-int dtype name of an array-factory call, if any."""
    func = call.func
    name = (
        func.attr
        if isinstance(func, ast.Attribute)
        else func.id
        if isinstance(func, ast.Name)
        else None
    )
    if name not in _ARRAY_FACTORIES and name != "astype":
        return None
    for keyword in call.keywords:
        if keyword.arg == "dtype":
            return _dtype_text(keyword.value)
    if name == "astype" and call.args:
        return _dtype_text(call.args[0])
    return None


def _dtype_text(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value
    elif isinstance(node, ast.Attribute):
        text = node.attr
    elif isinstance(node, ast.Name):
        text = node.id
    else:
        return None
    return text if text in _NARROW_INT_DTYPES else None


def _is_lift_sink(call: ast.Call) -> bool:
    func = call.func
    name = (
        func.attr
        if isinstance(func, ast.Attribute)
        else func.id
        if isinstance(func, ast.Name)
        else ""
    )
    if any(name.startswith(prefix) for prefix in _LIFT_SINKS):
        return True
    if name == "wrap" and isinstance(func, ast.Attribute):
        return "DenseMemoTable" in ast.unparse(func.value)
    return name == "DenseMemoTable"


def _check_dtype_smells(
    tree: ast.Module, path: str, findings: list[Finding]
) -> None:
    narrow: dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        if isinstance(node.value, ast.Call):
            dtype = _narrow_dtype_of(node.value)
            if dtype is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        narrow[target.id] = dtype
        elif isinstance(node.value, ast.Name) and node.value.id in narrow:
            # table = memo — alias propagation.
            for target in node.targets:
                if isinstance(target, ast.Name):
                    narrow[target.id] = narrow[node.value.id]
        elif (
            isinstance(node.value, ast.Tuple)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Tuple)
            and len(node.targets[0].elts) == len(node.value.elts)
        ):
            # memo, aux = np.zeros(..., dtype=np.int16), np.zeros(...)
            # — tuple-unpacked intermediates used to slip through.
            for target, value in zip(node.targets[0].elts, node.value.elts):
                if not isinstance(target, ast.Name):
                    continue
                if isinstance(value, ast.Call):
                    dtype = _narrow_dtype_of(value)
                    if dtype is not None:
                        narrow[target.id] = dtype
                elif isinstance(value, ast.Name) and value.id in narrow:
                    narrow[target.id] = narrow[value.id]
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _is_lift_sink(node)):
            continue
        arguments = list(node.args) + [kw.value for kw in node.keywords]
        for arg in arguments:
            dtype = None
            if isinstance(arg, ast.Name) and arg.id in narrow:
                dtype = narrow[arg.id]
            elif isinstance(arg, ast.Call):
                dtype = _narrow_dtype_of(arg)
            if dtype is not None:
                findings.append(
                    Finding(
                        "DTYPE101",
                        path,
                        node.lineno,
                        node.col_offset,
                        f"array with dtype {dtype} flows into a lift-based "
                        "kernel — the segmented prefix-max lift (seg_id * "
                        "stride, core/slices.py) provably overflows it "
                        "under the declared input bounds; use int64 "
                        "(formerly SPMD004)",
                    )
                )
                break
        # DenseMemoTable(n, m, dtype=np.int32) — narrow dtype keyword.
        for keyword in node.keywords:
            if keyword.arg == "dtype":
                dtype = _dtype_text(keyword.value)
                if dtype is not None:
                    findings.append(
                        Finding(
                            "DTYPE101",
                            path,
                            node.lineno,
                            node.col_offset,
                            f"memo table created with dtype {dtype} — PRNA "
                            "and the batched kernels assume an int64-safe "
                            "lift; use int64 or the per-slice engines "
                            "(formerly SPMD004)",
                        )
                    )


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
    if name == "allocate_shared" and isinstance(func, ast.Attribute):
        return "allocate_shared"
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
    extra_constants: dict[str, int] | None = None,
    shm_factories: frozenset[str] = frozenset(),
) -> list[Finding]:
    """Run every per-module static rule over one parsed module.

    *extra_constants* widens SPMD002's tag folder with constants imported
    from other analyzed modules; *shm_factories* widens SPMD003's taint
    sources with helper functions the call graph proved to return shm
    handles.  Both default to the module-local behaviour so single-file
    analysis (tests, snippets) is unchanged.
    """
    findings: list[Finding] = []
    _RankConditionalVisitor(findings, path).visit(tree)
    _check_tags(tree, path, findings, extra_constants)
    _check_shm_writes(tree, path, findings, shm_factories)
    _check_dtype_smells(tree, path, findings)
    _check_architecture(tree, path, findings)
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings
