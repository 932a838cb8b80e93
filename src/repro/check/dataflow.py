"""Numeric dataflow verifier: interval/shape/dtype abstract interpretation.

The second interprocedural pass of ``repro.check`` (sibling of
:mod:`repro.check.protocol`; both run on every check).  Where the
protocol pass proves communication schedules agree, this pass proves
numeric facts about the **kernels**: it interprets each target function
over abstract values combining

* the integer interval lattice (:mod:`repro.check.intervals`) for value
  ranges,
* the symbolic shape lattice (:mod:`repro.check.shapes`) for numpy array
  extents, and
* S1/S2 **side provenance** for the memo table's axis contract.

Rule families (all proofs, never heuristics — every flag is backed by a
known bound, a known constant extent, or a same-root offset mismatch):

* **DTYPE101** — an array of sub-64-bit integer dtype reaches a
  lift/pack kernel (``tabulate_slice*``, ``_segmented_tabulate``, the
  memo tables ``ArcMemoTable``/``DenseMemoTable`` and their ``wrap``).
  Under the input bounds declared in
  :data:`repro.runtime.registry.INPUT_BOUNDS` the segmented prefix-max
  lift provably exceeds every narrow dtype's range
  (:func:`repro.check.intervals.lift_bound`).
* **DTYPE102** — a shifted/packed value whose interval provably exceeds
  the word width of the integer array it is stored into.
* **DTYPE103** — a provably lossy narrowing cast or store (``astype``
  or a store into a narrow array whose value range exceeds it).
* **SHAPE101** — a memo gather ``M[np.ix_(rows, cols)]`` whose row index
  is S2-derived or whose column index is S1-derived (transposed axes;
  invisible to length reasoning because both axes often agree in size).
* **SHAPE102** — elementwise/broadcast/``out=`` operands with provably
  incompatible extents (constant mismatch, or the same symbolic root at
  different offsets — the boundary-column off-by-one class).
* **SHAPE103** — a gather/scatter index map provably mismatched with its
  source or destination (``dest[idx] = src``, ``np.take(..., out=)``).

Analysis targets: every function in the numeric substrate modules
(``core/slices``, ``core/memo``, ``repro/mpi/*``), any function whose
name marks it as a kernel by convention (``tabulate_*``, ``pack_*``,
``lift_*``, ``_segmented_*``), and any function that calls a lift sink,
so a narrow table built outside the substrate is still caught at the
call that hands it over.  Everything the abstraction cannot relate
stays silent — top never proves anything.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace

from repro.check.findings import Finding
from repro.check.intervals import (
    NARROW_INT_DTYPES,
    TOP,
    Interval,
    const,
    dtype_range,
    lift_bound,
)
from repro.check.shapes import (
    TOP_DIM,
    affine_dim,
    broadcast_dim,
    const_dim,
    describe_dim,
    dim_offset,
    join_dim,
    provably_incompatible,
    side_of_name,
)

__all__ = ["analyze_dataflow", "AValue"]

#: Path fragments marking the numeric substrate (always analyzed).
_SUBSTRATE_PATH_PARTS = ("core/slices", "core/memo", "/mpi/")

#: Function-name prefixes marking kernels by convention.
_TARGET_NAME_PREFIXES = ("tabulate_", "pack_", "lift_", "_segmented_")

#: Callees that feed the segmented prefix-max lift (DTYPE101 sinks).
_LIFT_SINK_PREFIXES = ("tabulate_slice", "tabulate_slices",
                      "_segmented_tabulate")

#: Name fragments identifying the memo table for the SHAPE101 axis rule.
_MEMO_NAME_PARTS = ("memo", "values")

_NUMPY_ROOTS = ("np", "numpy")

#: numpy calls that produce a fresh 1-D array whatever their input ranks.
_FLAT_1D_FUNCS = frozenset(
    {"concatenate", "flatnonzero", "nonzero", "repeat", "ravel"}
)


def _input_bounds() -> dict[str, int]:
    try:
        from repro.runtime.registry import INPUT_BOUNDS

        return dict(INPUT_BOUNDS)
    except Exception:  # pragma: no cover - registry not importable
        return {"max_length": 1 << 20, "max_arcs": 1 << 19,
                "max_value": 1 << 19}


@dataclass(frozen=True)
class AValue:
    """One abstract value: shape x dtype x interval x side provenance.

    ``shape`` is ``None`` (unknown rank), ``()`` (scalar), or a tuple of
    dims from :mod:`repro.check.shapes`.  ``sym`` is the symbolic value
    of a *scalar* (a dim triple), linking ``n = len(xs)`` to the extent
    of arrays later allocated with ``n``.  ``packed`` marks values
    derived from a left shift, which routes narrow-store proofs to
    DTYPE102 (word width) instead of DTYPE103 (lossy cast).
    """

    shape: tuple | None = None
    dtype: str | None = None
    ival: Interval = TOP
    sides: frozenset = frozenset()
    sym: tuple | None = None
    packed: bool = False

    @property
    def is_scalar(self) -> bool:
        return self.shape == ()

    def dim(self):
        """First-axis extent when known 1-D, else top."""
        if self.shape and len(self.shape) >= 1:
            return self.shape[0]
        return TOP_DIM


_UNKNOWN = AValue()


def _scalar(ival: Interval = TOP, sym=None, sides=frozenset()) -> AValue:
    return AValue(shape=(), ival=ival, sym=sym, sides=sides)


def _join_values(a: AValue, b: AValue) -> AValue:
    if a == b:
        return a
    if a.shape is not None and b.shape is not None and len(a.shape) == len(
        b.shape
    ):
        shape: tuple | None = tuple(
            join_dim(x, y) for x, y in zip(a.shape, b.shape)
        )
    else:
        shape = None
    return AValue(
        shape=shape,
        dtype=a.dtype if a.dtype == b.dtype else None,
        ival=a.ival.join(b.ival),
        sides=a.sides | b.sides,
        sym=a.sym if a.sym == b.sym else None,
        packed=a.packed or b.packed,
    )


def _dtype_name(node: ast.expr) -> str | None:
    """The dtype name an AST expression denotes, if recognizable."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value
    elif isinstance(node, ast.Attribute):
        text = node.attr
    elif isinstance(node, ast.Name):
        text = node.id
    else:
        return None
    return text if dtype_range(text) is not None else None


def _call_name(call: ast.Call) -> str:
    """Leaf name of the callee (``np.take`` -> ``take``)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _np_func(call: ast.Call) -> str | None:
    """Dotted numpy function name, or None for non-numpy callees.

    ``np.take`` -> ``"take"``; ``np.maximum.accumulate`` ->
    ``"maximum.accumulate"``.
    """
    parts: list[str] = []
    node: ast.expr = call.func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in _NUMPY_ROOTS:
        return ".".join(reversed(parts))
    return None


def _is_lift_sink(call: ast.Call) -> str | None:
    name = _call_name(call)
    if any(name.startswith(prefix) for prefix in _LIFT_SINK_PREFIXES):
        return name
    if name.endswith("MemoTable"):
        return name
    if name == "wrap" and isinstance(call.func, ast.Attribute):
        owner = ast.unparse(call.func.value)
        if owner.endswith("MemoTable"):
            return f"{owner}.wrap"
    return None


def _is_memo_name(node: ast.expr) -> bool:
    """Whether *node* names the memo table (for the axis contract)."""
    names: list[str] = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
    for name in names:
        lower = name.lower()
        if name == "M" or any(part in lower for part in _MEMO_NAME_PARTS):
            return True
    return False


def _kwarg(call: ast.Call, name: str) -> ast.expr | None:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


class _FunctionInterpreter:
    """Abstract interpretation of one function body."""

    def __init__(
        self,
        info,
        path: str,
        findings: list[Finding],
        bounds: dict[str, int],
        constants: dict[str, int] | None = None,
    ):
        self.info = info
        self.path = path
        self.findings = findings
        self.bounds = bounds
        self.env: dict[str, AValue] = {}
        self._fresh = 0
        for name, value in (constants or {}).items():
            self.env[name] = _scalar(const(value), sym=const_dim(value))
        node = info.node
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            self.env[arg.arg] = AValue(
                sides=side_of_name(arg.arg), sym=affine_dim(arg.arg)
            )

    # -- plumbing ------------------------------------------------------
    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(rule, self.path, getattr(node, "lineno", 1),
                    getattr(node, "col_offset", 0), message)
        )

    def _fresh_root(self, name: str) -> str:
        self._fresh += 1
        return f"{name}#{self._fresh}"

    def run(self) -> None:
        self._exec_block(self.info.node.body)

    # -- statements ----------------------------------------------------
    def _exec_block(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, stmt.value, value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, stmt.value, self._eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            self._exec_augassign(stmt)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self._exec_branches(stmt.test, stmt.body, stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._exec_branches(stmt.test, stmt.body, stmt.orelse)
        elif isinstance(stmt, ast.For):
            self._exec_for(stmt)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._eval(item.context_expr)
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            before = dict(self.env)
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
            self._merge_env(before)
        # Nested defs, classes, imports etc. carry no numeric dataflow.

    def _exec_branches(
        self, test: ast.expr, body: list[ast.stmt], orelse: list[ast.stmt]
    ) -> None:
        self._eval(test)
        before = dict(self.env)
        self._exec_block(body)
        after_body = self.env
        self.env = dict(before)
        self._exec_block(orelse)
        after_else = self.env
        merged: dict[str, AValue] = {}
        for name in set(after_body) | set(after_else):
            a = after_body.get(name)
            b = after_else.get(name)
            if a is None:
                merged[name] = b  # type: ignore[assignment]
            elif b is None:
                merged[name] = a
            else:
                merged[name] = a if a == b else _join_values(a, b)
        self.env = merged

    def _merge_env(self, before: dict[str, AValue]) -> None:
        for name, value in before.items():
            current = self.env.get(name)
            if current is not None and current != value:
                self.env[name] = _join_values(current, value)

    def _exec_for(self, stmt: ast.For) -> None:
        before = dict(self.env)
        element = self._loop_element(stmt.iter)
        if isinstance(stmt.target, ast.Name):
            self.env[stmt.target.id] = element
        elif isinstance(stmt.target, ast.Tuple):
            for elt in stmt.target.elts:
                if isinstance(elt, ast.Name):
                    self.env[elt.id] = _UNKNOWN
        self._exec_block(stmt.body)
        self._exec_block(stmt.orelse)
        self._merge_env(before)

    def _loop_element(self, iterable: ast.expr) -> AValue:
        if (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id == "range"
        ):
            args = [self._eval(arg) for arg in iterable.args]
            if len(args) == 1:
                lo: Interval = const(0)
                hi = args[0].ival
            elif len(args) >= 2:
                lo = args[0].ival
                hi = args[1].ival
            else:
                return _scalar()
            upper = None if hi.hi is None else hi.hi - 1
            return _scalar(Interval(lo.lo, upper))
        src = self._eval(iterable)
        return _scalar(src.ival, sides=src.sides)

    # -- assignments and stores ----------------------------------------
    def _assign(
        self, target: ast.expr, value_node: ast.expr, value: AValue
    ) -> None:
        if isinstance(target, ast.Name):
            if value.shape == () and value.sym is None:
                value = replace(
                    value, sym=affine_dim(self._fresh_root(target.id))
                )
            self.env[target.id] = value
        elif isinstance(target, ast.Tuple):
            if isinstance(value_node, ast.Tuple) and len(
                value_node.elts
            ) == len(target.elts):
                for elt_target, elt_value in zip(
                    target.elts, value_node.elts
                ):
                    self._assign(
                        elt_target, elt_value, self._eval(elt_value)
                    )
            else:
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        self.env[elt.id] = _UNKNOWN
        elif isinstance(target, ast.Subscript):
            self._exec_store(target, value)
        elif isinstance(target, ast.Starred) and isinstance(
            target.value, ast.Name
        ):
            self.env[target.value.id] = _UNKNOWN

    def _exec_store(self, target: ast.Subscript, value: AValue) -> None:
        base = self._eval(target.value)
        self._check_narrow_store(base, value, target,
                                 ast.unparse(target.value))
        idx_node = target.slice
        if not isinstance(idx_node, (ast.Slice, ast.Tuple)):
            idx = self._eval(idx_node)
            if (
                idx.shape is not None
                and len(idx.shape) == 1
                and value.shape is not None
                and len(value.shape) == 1
                and provably_incompatible(idx.shape[0], value.shape[0])
            ):
                self._flag(
                    "SHAPE103", target,
                    f"scatter '{ast.unparse(target)} = ...' writes "
                    f"{describe_dim(value.shape[0])} values through "
                    f"{describe_dim(idx.shape[0])} indices — the index map "
                    "and the source provably differ in length",
                )
            if (
                idx.is_scalar
                and base.shape is not None
                and len(base.shape) == 2
                and value.shape is not None
                and len(value.shape) == 1
                and provably_incompatible(base.shape[1], value.shape[0])
            ):
                self._flag(
                    "SHAPE102", target,
                    f"row store '{ast.unparse(target)} = ...' writes a "
                    f"length-{describe_dim(value.shape[0])} array into rows "
                    f"of length {describe_dim(base.shape[1])} — provably "
                    "incompatible extents",
                )
            # Scatter taints the destination with the source's provenance
            # and range (the SHAPE101 side tracking depends on this).
            if isinstance(target.value, ast.Name):
                root = target.value.id
                if root in self.env:
                    old = self.env[root]
                    self.env[root] = replace(
                        old,
                        ival=old.ival.join(value.ival),
                        sides=old.sides | value.sides | idx.sides,
                        packed=old.packed or value.packed,
                    )
        elif isinstance(target.value, ast.Name):
            root = target.value.id
            if root in self.env:
                old = self.env[root]
                self.env[root] = replace(
                    old,
                    ival=old.ival.join(value.ival),
                    sides=old.sides | value.sides,
                    packed=old.packed or value.packed,
                )

    def _exec_augassign(self, stmt: ast.AugAssign) -> None:
        value = self._eval(stmt.value)
        if isinstance(stmt.target, ast.Name):
            name = stmt.target.id
            current = self.env.get(name, _UNKNOWN)
            result = self._binop_values(current, value, stmt.op, stmt)
            self._check_narrow_store(current, result, stmt, name)
            self.env[name] = replace(
                result,
                shape=result.shape if result.shape is not None
                else current.shape,
                dtype=current.dtype,
            )
        elif isinstance(stmt.target, ast.Subscript):
            base = self._eval(stmt.target.value)
            result = self._binop_values(base, value, stmt.op, stmt)
            self._exec_store(stmt.target, result)

    def _check_narrow_store(
        self, dest: AValue, value: AValue, node: ast.AST, what: str
    ) -> None:
        if dest.dtype is None or dest.dtype not in NARROW_INT_DTYPES:
            return
        rng = dtype_range(dest.dtype)
        if rng is None or not value.ival.proven_exceeds(rng):
            return
        lo = "-inf" if value.ival.lo is None else str(value.ival.lo)
        hi = "+inf" if value.ival.hi is None else str(value.ival.hi)
        if value.packed:
            self._flag(
                "DTYPE102", node,
                f"packed value with range [{lo}, {hi}] stored into "
                f"{dest.dtype} array '{what}' — the shifted bits provably "
                f"exceed the {dest.dtype} word width "
                f"[{rng.lo}, {rng.hi}]; widen the table dtype",
            )
        else:
            self._flag(
                "DTYPE103", node,
                f"store into {dest.dtype} array '{what}' with value range "
                f"[{lo}, {hi}] — provably exceeds the {dest.dtype} range "
                f"[{rng.lo}, {rng.hi}] (lossy narrowing)",
            )

    # -- expressions ---------------------------------------------------
    def _eval(self, node: ast.expr) -> AValue:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return _scalar(Interval(0, 1))
            if isinstance(node.value, int):
                return _scalar(const(node.value), sym=const_dim(node.value))
            return _scalar()
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            return AValue(sides=side_of_name(node.id),
                          sym=affine_dim(node.id))
        if isinstance(node, ast.Attribute):
            base = self._eval(node.value)
            return AValue(
                sides=base.sides | side_of_name(node.attr),
                sym=affine_dim(ast.unparse(node)),
            )
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left)
            right = self._eval(node.right)
            return self._binop_values(left, right, node.op, node)
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand)
            if isinstance(node.op, ast.USub):
                return replace(operand, ival=operand.ival.neg(), sym=None)
            return replace(operand, ival=TOP, sym=None)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node)
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return _join_values(self._eval(node.body),
                                self._eval(node.orelse))
        if isinstance(node, ast.Compare):
            self._eval(node.left)
            for comparator in node.comparators:
                self._eval(comparator)
            return _scalar(Interval(0, 1))
        if isinstance(node, ast.BoolOp):
            values = [self._eval(value) for value in node.values]
            result = values[0]
            for value in values[1:]:
                result = _join_values(result, value)
            return result
        if isinstance(node, (ast.List, ast.Tuple)):
            elements = [self._eval(elt) for elt in node.elts]
            ival = TOP
            sides: frozenset = frozenset()
            known = [e for e in elements if not e.ival.is_top]
            if known and len(known) == len(elements):
                ival = known[0].ival
                for e in known[1:]:
                    ival = ival.join(e.ival)
            for e in elements:
                sides = sides | e.sides
            if all(e.is_scalar for e in elements):
                return AValue(shape=(const_dim(len(elements)),),
                              ival=ival, sides=sides)
            return AValue(ival=ival, sides=sides)
        return _UNKNOWN

    # -- operators -----------------------------------------------------
    def _binop_values(
        self, left: AValue, right: AValue, op: ast.operator, node: ast.AST
    ) -> AValue:
        shape = self._broadcast_shapes(left, right, node)
        ival, packed = self._binop_ival(left, right, op)
        sym = None
        if shape == () or shape is None:
            sym = self._binop_sym(left, right, op)
        return AValue(
            shape=shape,
            dtype=left.dtype if left.dtype == right.dtype else None,
            ival=ival,
            sides=left.sides | right.sides,
            sym=sym,
            packed=packed or left.packed or right.packed,
        )

    def _binop_ival(
        self, left: AValue, right: AValue, op: ast.operator
    ) -> tuple[Interval, bool]:
        a, b = left.ival, right.ival
        if isinstance(op, ast.Add):
            return a.add(b), False
        if isinstance(op, ast.Sub):
            return a.sub(b), False
        if isinstance(op, ast.Mult):
            return a.mul(b), False
        if isinstance(op, ast.LShift):
            return a.lshift(b), True
        if isinstance(op, ast.BitOr):
            # For non-negative operands, a | b <= a + b and >= max(lo).
            if (
                a.lo is not None and a.lo >= 0 and b.lo is not None
                and b.lo >= 0 and a.hi is not None and b.hi is not None
            ):
                return Interval(max(a.lo, b.lo), a.hi + b.hi), False
            return TOP, False
        if isinstance(op, ast.Mod):
            if b.hi is not None and b.lo is not None and b.lo > 0:
                return Interval(0, b.hi - 1), False
            return TOP, False
        if isinstance(op, ast.FloorDiv):
            if (
                a.lo is not None and a.hi is not None and b.lo is not None
                and b.hi is not None and b.lo > 0
            ):
                return Interval(a.lo // b.hi if a.lo >= 0 else a.lo // b.lo,
                                a.hi // b.lo), False
            return TOP, False
        return TOP, False

    @staticmethod
    def _binop_sym(left: AValue, right: AValue, op: ast.operator):
        if left.sym is None or right.sym is None:
            return None
        if isinstance(op, ast.Add):
            if right.sym[0] == "const":
                return dim_offset(left.sym, right.sym[1])
            if left.sym[0] == "const":
                return dim_offset(right.sym, left.sym[1])
        if isinstance(op, ast.Sub) and right.sym[0] == "const":
            return dim_offset(left.sym, -right.sym[1])
        if (
            left.sym[0] == "const"
            and right.sym[0] == "const"
        ):
            a, b = left.sym[1], right.sym[1]
            if isinstance(op, ast.Mult):
                return const_dim(a * b)
            if isinstance(op, ast.FloorDiv) and b != 0:
                return const_dim(a // b)
        return None

    def _broadcast_shapes(
        self, left: AValue, right: AValue, node: ast.AST
    ) -> tuple | None:
        a, b = left.shape, right.shape
        if a == () and b == ():
            return ()
        if a is None and b is None:
            return None
        if a is None:
            return b
        if b is None:
            return a
        if a == ():
            return b
        if b == ():
            return a
        # Trailing-axis alignment, numpy broadcasting.
        out: list = []
        for axis in range(1, max(len(a), len(b)) + 1):
            da = a[-axis] if axis <= len(a) else const_dim(1)
            db = b[-axis] if axis <= len(b) else const_dim(1)
            if provably_incompatible(da, db):
                self._flag(
                    "SHAPE102", node,
                    f"elementwise operands with provably incompatible "
                    f"extents {describe_dim(da)} vs {describe_dim(db)} "
                    f"in '{ast.unparse(node) if isinstance(node, ast.expr) else 'augmented assignment'}'",
                )
            out.append(broadcast_dim(da, db))
        return tuple(reversed(out))

    # -- calls ---------------------------------------------------------
    def _eval_call(self, call: ast.Call) -> AValue:
        sink = _is_lift_sink(call)
        if sink is not None:
            self._check_lift_sink(call, sink)
        np_name = _np_func(call)
        if np_name is not None:
            return self._eval_np_call(call, np_name)
        func = call.func
        if isinstance(func, ast.Name):
            return self._eval_builtin(call, func.id)
        if isinstance(func, ast.Attribute) and not isinstance(
            func.value, ast.Name
        ) or isinstance(func, ast.Attribute):
            return self._eval_method(call, func)
        args = [self._eval(arg) for arg in call.args]
        sides: frozenset = frozenset()
        for arg in args:
            sides = sides | arg.sides
        return AValue(sides=sides)

    def _check_lift_sink(self, call: ast.Call, sink: str) -> None:
        bound = lift_bound(self.bounds)
        arguments = list(call.args) + [kw.value for kw in call.keywords]
        for arg in arguments:
            value = self._eval(arg)
            if value.dtype in NARROW_INT_DTYPES:
                rng = dtype_range(value.dtype)
                self._flag(
                    "DTYPE101", call,
                    f"array with dtype {value.dtype} reaches lift kernel "
                    f"'{sink}' — under the registry's declared input "
                    f"bounds the segmented prefix-max lift reaches "
                    f"{bound} (~2^{bound.bit_length()}), beyond "
                    f"{value.dtype}'s maximum {rng.hi if rng else '?'}; "
                    "use int64 (semantic successor of SPMD004)",
                )
                return
        dtype_kw = _kwarg(call, "dtype")
        if dtype_kw is not None:
            name = _dtype_name(dtype_kw)
            if name in NARROW_INT_DTYPES:
                rng = dtype_range(name)
                self._flag(
                    "DTYPE101", call,
                    f"memo table created with dtype {name} — the lift "
                    f"provably reaches {bound} under declared input "
                    f"bounds, beyond {name}'s maximum "
                    f"{rng.hi if rng else '?'}; use int64",
                )

    def _eval_np_call(self, call: ast.Call, name: str) -> AValue:
        args = [self._eval(arg) for arg in call.args]
        sides: frozenset = frozenset()
        for arg in args:
            sides = sides | arg.sides
        dtype_node = _kwarg(call, "dtype")
        dtype = _dtype_name(dtype_node) if dtype_node is not None else None

        if name in ("zeros", "empty", "ones", "full") and call.args:
            shape = self._shape_from_arg(call.args[0])
            if name == "zeros":
                ival: Interval = const(0)
            elif name == "ones":
                ival = const(1)
            elif name == "full" and len(args) >= 2:
                ival = args[1].ival
            else:
                ival = TOP
            return AValue(shape=shape, dtype=dtype, ival=ival, sides=sides)
        if name.endswith("_like") and args:
            base = args[0]
            ival = const(0) if name == "zeros_like" else (
                const(1) if name == "ones_like" else TOP
            )
            return AValue(shape=base.shape, dtype=dtype or base.dtype,
                          ival=ival, sides=base.sides)
        if name == "arange":
            if len(call.args) == 1:
                size = self._eval(call.args[0])
                dim = size.sym if size.sym is not None else TOP_DIM
                upper = None if size.ival.hi is None else size.ival.hi - 1
                return AValue(shape=(dim,), dtype=dtype,
                              ival=Interval(0, upper), sides=sides)
            lo = args[0].ival if args else TOP
            hi = args[1].ival if len(args) > 1 else TOP
            upper = None if hi.hi is None else hi.hi - 1
            return AValue(shape=(TOP_DIM,), dtype=dtype,
                          ival=Interval(lo.lo, upper), sides=sides)
        if name in ("asarray", "array") and args:
            base = args[0]
            result = replace(base, dtype=dtype or base.dtype)
            if dtype is not None:
                self._check_cast(base, dtype, call)
            return result
        if name == "searchsorted" and len(args) >= 2:
            haystack, needles = args[0], args[1]
            hi = None
            dim = haystack.dim()
            if dim[0] == "const":
                hi = dim[1]
            return AValue(shape=needles.shape, ival=Interval(0, hi),
                          sides=sides)
        if name == "repeat" and len(args) >= 2:
            base, reps = args[0], args[1]
            shape: tuple | None = (TOP_DIM,)
            if (
                reps.is_scalar and reps.sym is not None
                and reps.sym[0] == "const" and base.shape is not None
                and len(base.shape) == 1 and base.shape[0][0] == "const"
            ):
                shape = (const_dim(base.shape[0][1] * reps.sym[1]),)
            return AValue(shape=shape, dtype=base.dtype, ival=base.ival,
                          sides=sides)
        if name in _FLAT_1D_FUNCS:
            ival = args[0].ival if args else TOP
            return AValue(shape=(TOP_DIM,), ival=ival, sides=sides)
        if name == "cumsum" and args:
            return replace(args[0], ival=self._cumulative_ival(args[0]),
                           sym=None)
        if name in ("maximum", "minimum") and len(args) >= 2:
            result = AValue(
                shape=self._broadcast_shapes(args[0], args[1], call),
                dtype=args[0].dtype if args[0].dtype == args[1].dtype
                else None,
                ival=args[0].ival.join(args[1].ival),
                sides=sides,
            )
            self._check_out(call, result, "SHAPE102")
            return result
        if name in ("maximum.accumulate", "minimum.accumulate") and args:
            result = replace(args[0], sym=None)
            self._check_out(call, result, "SHAPE102")
            return result
        if name == "take" and len(args) >= 2:
            base, idx = args[0], args[1]
            result = AValue(shape=idx.shape, dtype=base.dtype,
                            ival=base.ival, sides=sides)
            self._check_out(call, result, "SHAPE103")
            return result
        if name == "clip" and args:
            return replace(args[0], sides=sides, sym=None)
        if name == "left_shift" and len(args) >= 2:
            ival = args[0].ival.lshift(args[1].ival)
            result = AValue(
                shape=self._broadcast_shapes(args[0], args[1], call),
                ival=ival, sides=sides, packed=True,
            )
            self._check_out(call, result, "SHAPE102")
            return result
        if name == "ix_":
            # Only meaningful inside a Subscript; handled there.
            return AValue(sides=sides)
        return AValue(sides=sides, ival=TOP)

    def _check_out(self, call: ast.Call, result: AValue, rule: str) -> None:
        out_node = _kwarg(call, "out")
        if out_node is None:
            return
        out = self._eval(out_node)
        if (
            out.shape is not None and result.shape is not None
            and len(out.shape) == 1 and len(result.shape) == 1
            and provably_incompatible(out.shape[0], result.shape[0])
        ):
            self._flag(
                rule, call,
                f"out= destination '{ast.unparse(out_node)}' has extent "
                f"{describe_dim(out.shape[0])} but the operation produces "
                f"{describe_dim(result.shape[0])} — provably mismatched",
            )
        if isinstance(out_node, ast.Name) and out_node.id in self.env:
            old = self.env[out_node.id]
            self._check_narrow_store(old, result, call, out_node.id)
            self.env[out_node.id] = replace(
                old, ival=old.ival.join(result.ival),
                sides=old.sides | result.sides,
            )

    def _cumulative_ival(self, base: AValue) -> Interval:
        """Interval of a cumulative sum under declared length bounds."""
        ival = base.ival
        if ival.lo is None or ival.hi is None:
            return TOP
        dim = base.dim()
        if dim[0] == "const":
            n = dim[1]
        else:
            n = self.bounds.get("max_length", 1 << 20)
        corners = [ival.lo, ival.hi, ival.lo * n, ival.hi * n]
        return Interval(min(corners), max(corners))

    def _eval_builtin(self, call: ast.Call, name: str) -> AValue:
        args = [self._eval(arg) for arg in call.args]
        if name == "len" and args:
            base = args[0]
            if base.shape is not None and len(base.shape) >= 1:
                dim = base.shape[0]
                hi = dim[1] if dim[0] == "const" else None
                return _scalar(Interval(0, hi), sym=dim, sides=base.sides)
            return _scalar(Interval(0, None), sides=base.sides)
        if name == "int" and args:
            return _scalar(args[0].ival, sym=args[0].sym,
                           sides=args[0].sides)
        if name in ("max", "min") and args:
            ival = args[0].ival
            for arg in args[1:]:
                ival = ival.join(arg.ival)
            sides: frozenset = frozenset()
            for arg in args:
                sides = sides | arg.sides
            return _scalar(ival, sides=sides)
        if name == "abs" and args:
            return _scalar(sides=args[0].sides)
        sides = frozenset()
        for arg in args:
            sides = sides | arg.sides
        return AValue(sides=sides)

    def _eval_method(self, call: ast.Call, func: ast.Attribute) -> AValue:
        receiver = self._eval(func.value)
        args = [self._eval(arg) for arg in call.args]
        name = func.attr
        if name == "astype":
            dtype_node = _kwarg(call, "dtype") or (
                call.args[0] if call.args else None
            )
            dtype = _dtype_name(dtype_node) if dtype_node is not None \
                else None
            if dtype is not None:
                self._check_cast(receiver, dtype, call)
                return replace(receiver, dtype=dtype)
            return replace(receiver, dtype=None)
        if name == "sum":
            return _scalar(self._cumulative_ival(receiver),
                           sides=receiver.sides)
        if name == "cumsum":
            return replace(receiver, ival=self._cumulative_ival(receiver),
                           sym=None)
        if name in ("max", "min"):
            return _scalar(receiver.ival, sides=receiver.sides)
        if name in ("tolist", "copy", "ravel"):
            return receiver
        sides = receiver.sides
        for arg in args:
            sides = sides | arg.sides
        return AValue(sides=sides)

    def _check_cast(
        self, value: AValue, dtype: str, node: ast.AST
    ) -> None:
        if dtype not in NARROW_INT_DTYPES:
            return
        rng = dtype_range(dtype)
        if rng is None or not value.ival.proven_exceeds(rng):
            return
        lo = "-inf" if value.ival.lo is None else str(value.ival.lo)
        hi = "+inf" if value.ival.hi is None else str(value.ival.hi)
        rule = "DTYPE102" if value.packed else "DTYPE103"
        self._flag(
            rule, node,
            f"cast to {dtype} of a value with range [{lo}, {hi}] — "
            f"provably exceeds the {dtype} range [{rng.lo}, {rng.hi}]"
            + (" (packed word width too small)" if value.packed
               else " (lossy narrowing)"),
        )

    # -- subscripts ----------------------------------------------------
    def _shape_from_arg(self, node: ast.expr) -> tuple | None:
        if isinstance(node, ast.Tuple):
            return tuple(self._dim_from_expr(elt) for elt in node.elts)
        return (self._dim_from_expr(node),)

    def _dim_from_expr(self, node: ast.expr):
        value = self._eval(node)
        if value.sym is not None:
            return value.sym
        return TOP_DIM

    def _eval_subscript(self, node: ast.Subscript) -> AValue:
        base = self._eval(node.value)
        sl = node.slice
        if (
            isinstance(sl, ast.Call)
            and _np_func(sl) == "ix_"
            and len(sl.args) == 2
        ):
            return self._eval_ix_gather(node, base, sl)
        if isinstance(sl, ast.Slice):
            dims = base.shape
            if dims is not None and len(dims) >= 1:
                first = self._slice_dim(dims[0], sl)
                return replace(base, shape=(first,) + dims[1:], sym=None)
            return replace(base, shape=None, sym=None)
        if isinstance(sl, ast.Tuple):
            return self._eval_tuple_subscript(base, sl)
        idx = self._eval(sl)
        if idx.shape is not None and len(idx.shape) >= 1:
            # Gather: the result takes the index's shape.
            return AValue(shape=idx.shape, dtype=base.dtype,
                          ival=base.ival, sides=base.sides | idx.sides)
        if idx.is_scalar:
            if base.shape is not None and len(base.shape) >= 1:
                rest = base.shape[1:]
                return AValue(shape=rest, dtype=base.dtype, ival=base.ival,
                              sides=base.sides)
            return AValue(shape=None, dtype=base.dtype, ival=base.ival,
                          sides=base.sides)
        return AValue(shape=None, dtype=base.dtype, ival=base.ival,
                      sides=base.sides | idx.sides)

    def _eval_ix_gather(
        self, node: ast.Subscript, base: AValue, ix_call: ast.Call
    ) -> AValue:
        row_idx = self._eval(ix_call.args[0])
        col_idx = self._eval(ix_call.args[1])
        if _is_memo_name(node.value):
            if row_idx.sides == frozenset({"s2"}):
                self._flag(
                    "SHAPE101", node,
                    f"memo gather '{ast.unparse(node)}' uses the S2-derived "
                    f"index '{ast.unparse(ix_call.args[0])}' on the row "
                    "axis — the memo axis contract is M[k1-side, k2-side] "
                    "(transposed gather)",
                )
            elif col_idx.sides == frozenset({"s1"}):
                self._flag(
                    "SHAPE101", node,
                    f"memo gather '{ast.unparse(node)}' uses the S1-derived "
                    f"index '{ast.unparse(ix_call.args[1])}' on the column "
                    "axis — the memo axis contract is M[k1-side, k2-side] "
                    "(transposed gather)",
                )
        return AValue(
            shape=(row_idx.dim(), col_idx.dim()),
            dtype=base.dtype,
            ival=base.ival,
            sides=base.sides | row_idx.sides | col_idx.sides,
        )

    def _eval_tuple_subscript(
        self, base: AValue, sl: ast.Tuple
    ) -> AValue:
        dims: list = []
        base_dims = list(base.shape) if base.shape is not None else None
        unknown = False
        for position, element in enumerate(sl.elts):
            base_dim = (
                base_dims[position]
                if base_dims is not None and position < len(base_dims)
                else TOP_DIM
            )
            if isinstance(element, ast.Slice):
                dims.append(self._slice_dim(base_dim, element))
                continue
            value = self._eval(element)
            if value.is_scalar:
                continue  # scalar index drops the axis
            if value.shape is not None and len(value.shape) == 1:
                dims.append(value.shape[0])
                continue
            unknown = True
        if unknown:
            return AValue(shape=None, dtype=base.dtype, ival=base.ival,
                          sides=base.sides)
        return AValue(shape=tuple(dims), dtype=base.dtype, ival=base.ival,
                      sides=base.sides)

    def _slice_dim(self, dim, sl: ast.Slice):
        if sl.step is not None and not (
            isinstance(sl.step, ast.Constant) and sl.step.value == 1
        ):
            return TOP_DIM
        lower = sl.lower
        upper = sl.upper
        if lower is None and upper is None:
            return dim
        lower_const = (
            lower.value
            if isinstance(lower, ast.Constant)
            and isinstance(lower.value, int)
            else None
        )
        upper_const = (
            upper.value
            if isinstance(upper, ast.Constant)
            and isinstance(upper.value, int)
            else None
        )
        if upper is None and lower_const is not None and lower_const >= 0:
            return dim_offset(dim, -lower_const)
        if lower is None and upper_const is not None and upper_const < 0:
            return dim_offset(dim, upper_const)
        return TOP_DIM


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _is_target(info, targets) -> bool:
    if targets is not None:
        return info.qualname in targets or info.node.name in targets
    norm = info.path.replace("\\", "/")
    if any(part in norm for part in _SUBSTRATE_PATH_PARTS):
        return True
    if info.node.name.startswith(_TARGET_NAME_PREFIXES):
        return True
    return any(
        isinstance(node, ast.Call) and _is_lift_sink(node) is not None
        for node in ast.walk(info.node)
    )


def analyze_dataflow(
    modules: dict[str, ast.Module],
    *,
    index=None,
    targets=None,
    bounds: dict[str, int] | None = None,
) -> list[Finding]:
    """Run the numeric dataflow pass over parsed *modules*.

    *targets* restricts analysis to functions whose qualified or bare
    name appears in it (tests); by default the substrate modules,
    conventionally named kernels and lift-sink callers are analyzed.
    *bounds* overrides the registry's declared input bounds.
    """
    if index is None:
        from repro.check.callgraph import ProjectIndex

        index = ProjectIndex(modules)
    bounds = dict(bounds) if bounds is not None else _input_bounds()
    findings: list[Finding] = []
    for qualname in sorted(index.functions):
        info = index.functions[qualname]
        if not _is_target(info, targets):
            continue
        module = index.modules.get(info.path)
        constants = module.constants if module is not None else {}
        _FunctionInterpreter(
            info, info.path, findings, bounds, constants
        ).run()
    deduped: list[Finding] = []
    seen: set[tuple] = set()
    for finding in sorted(
        findings, key=lambda f: (f.path, f.line, f.col, f.rule)
    ):
        key = (finding.rule, finding.path, finding.line, finding.col)
        if key not in seen:
            seen.add(key)
            deduped.append(finding)
    return deduped
