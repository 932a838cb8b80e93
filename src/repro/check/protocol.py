"""Interprocedural, rank-symbolic SPMD protocol verification.

This is the static counterpart of the runtime sanitizer: where
``SanitizedCommunicator`` catches SAN101/SAN103 divergence as it happens,
this pass *proves or refutes* schedule agreement before the code runs.

For every SPMD entry point (module-level functions taking a ``comm``
parameter, the pipe ``Allreduce`` protocol in :mod:`repro.mpi.process`,
and any executor entry declared in :mod:`repro.runtime.registry`) the
analyzer interprets the body once per abstract rank (``rank == 0`` and a
symbolic non-zero rank), inlining calls through the
:class:`~repro.check.callgraph.ProjectIndex`, and extracts a
**communication schedule** — an ordered tree of collective/send/recv/
publish/await events with tag/op/root lattice values
(:mod:`repro.check.lattice`).  ``Publish``/``Await`` — the dataflow
executor's one-sided substrate — appear in the tree but are excluded
from both the collective skeleton and the tag pool: producer/consumer
asymmetry is the dependency-driven schedule working as designed, and its
legality is what the SCHED0xx rules prove instead.

Rule families over the schedules:

* **SPMD1xx — collective agreement** (static SAN101/SAN103):
  ``SPMD101`` when two feasible rank paths reach different collective
  sequences, ``SPMD102`` when an aligned collective's op/root metadata is
  rank-dependent, ``SPMD103`` when a collective sits inside a loop whose
  trip count is rank-dependent (each rank spins it a different number of
  times).
* **SPMD2xx — interprocedural tag matching** (static SAN104):
  ``SPMD201``/``SPMD202`` for constant send/recv tags with no matching
  peer anywhere in the analyzed program, with cross-module constant
  resolution.  One unresolvable receive tag anywhere makes the pool
  wildcard (conservative).
* **SCHED0xx — dependency-schedule legality**: each executor schedule
  declared in the registry is checked against the recurrence's actual
  ``d1``/``d2`` dependency structure (via
  :func:`repro.analysis.depgraph.arc_dependency_pairs`) on a set of
  nested sample structures: ``SCHED001`` when the declared publication
  order publishes a dependency after its reader, ``SCHED002`` when a
  schedule that claims soundness publishes nothing intra-stage,
  ``SCHED003`` when a declaration is inconsistent with the registry's
  name catalog.  This is the gate a future async dataflow executor's
  declared cell-publication order must pass.
"""

from __future__ import annotations

import ast

from repro.check.callgraph import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    _receiver_root,
)
from repro.check.findings import Finding
from repro.check.lattice import (
    ABSTRACT_RANKS,
    AbstractRank,
    AwaitEvent,
    Branch,
    CollectiveEvent,
    CONST,
    EXPR,
    Loop,
    PublishEvent,
    RecvEvent,
    Schedule,
    SendEvent,
    TOP,
    _is_rank_name,
    collective_view,
    decide_condition,
    first_difference,
    iter_events,
    render_value,
)

__all__ = ["analyze_protocol", "extract_schedules", "check_declared_schedules"]

#: Protocol methods analyzed as entry points even though they are methods
#: (the process backend's recursive-doubling row reduction).
_METHOD_ENTRIES = ("ProcessCommunicator.Allreduce",)

_MAX_INLINE_DEPTH = 24

#: Collective keywords whose values must agree across ranks.
_UNIFORM_META_KEYS = ("root", "op")

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
    }
)

#: Receiver roots whose methods merely *look* like collectives
#: (``np.maximum.reduce``, ``functools.reduce``, ...).
_NON_COMM_ROOTS = frozenset(
    {"np", "numpy", "functools", "operator", "itertools", "math"}
)

#: Point-to-point method name -> positional index of its ``tag`` argument.
_SEND_METHODS = {"send": 2, "isend": 2, "_send": 2}
_RECV_METHODS = {"recv": 1, "irecv": 1, "_recv": 1, "_try_recv": 1}


def _mentions_rank(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and _is_rank_name(sub.id):
            return True
        if isinstance(sub, ast.Attribute) and _is_rank_name(sub.attr):
            return True
    return False


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


# ----------------------------------------------------------------------
# The abstract interpreter
# ----------------------------------------------------------------------
class _FrameState:
    """Per-inlined-function interpretation state."""

    __slots__ = ("module", "class_name", "env", "tainted")

    def __init__(
        self,
        module: ModuleInfo,
        class_name: str | None,
        env: dict[str, int],
        tainted: set[str],
    ):
        self.module = module
        self.class_name = class_name
        self.env = env
        self.tainted = tainted


class _Interpreter:
    """Extracts one abstract rank's schedule for one entry point."""

    def __init__(self, index: ProjectIndex, rank: AbstractRank):
        self.index = index
        self.rank = rank
        self.meta_taints: list[tuple[str, int, int, str, str]] = []
        self._stack: list[str] = []
        self._memo: dict[tuple, Schedule] = {}

    # -- public --------------------------------------------------------
    def run(self, entry: FunctionInfo) -> Schedule:
        return self._run_function(entry, frozenset())

    # -- function-level ------------------------------------------------
    def _run_function(
        self, info: FunctionInfo, tainted_params: frozenset[str]
    ) -> Schedule:
        key = (info.qualname, tainted_params)
        if key in self._memo:
            return self._memo[key]
        if info.qualname in self._stack or len(self._stack) >= _MAX_INLINE_DEPTH:
            return Schedule()
        module = self.index.modules[info.path]
        state = _FrameState(
            module,
            info.class_name,
            self.index.constant_env(module),
            set(tainted_params),
        )
        schedule = Schedule()
        self._stack.append(info.qualname)
        try:
            self._walk_body(info.node.body, state, schedule)
        finally:
            self._stack.pop()
        self._memo[key] = schedule
        return schedule

    # -- taint ---------------------------------------------------------
    def _rank_tainted(self, node: ast.AST, state: _FrameState) -> bool:
        if _mentions_rank(node):
            return True
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and (
                sub.id in state.tainted or "owned" in sub.id
            ):
                return True
        return False

    def _taint_assign(
        self, targets: list[ast.expr], value: ast.expr, state: _FrameState
    ) -> None:
        if not self._rank_tainted(value, state):
            return
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    state.tainted.add(name.id)

    # -- statements ----------------------------------------------------
    def _walk_body(
        self, body: list[ast.stmt], state: _FrameState, out: Schedule
    ) -> str | None:
        """Walk *body*; returns ``"return"``/``"break"``/``"continue"``
        when control leaves the block early, ``None`` on fall-through."""
        for stmt in body:
            status = self._walk_stmt(stmt, state, out)
            if status is not None:
                return status
        return None

    def _walk_stmt(
        self, stmt: ast.stmt, state: _FrameState, out: Schedule
    ) -> str | None:
        if isinstance(stmt, ast.Expr):
            self._walk_expr(stmt.value, state, out)
            return None
        if isinstance(stmt, ast.Assign):
            self._walk_expr(stmt.value, state, out)
            self._taint_assign(stmt.targets, stmt.value, state)
            return None
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._walk_expr(stmt.value, state, out)
                self._taint_assign([stmt.target], stmt.value, state)
            return None
        if isinstance(stmt, ast.AugAssign):
            self._walk_expr(stmt.value, state, out)
            if self._rank_tainted(stmt.value, state):
                self._taint_assign([stmt.target], stmt.value, state)
            return None
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._walk_expr(stmt.value, state, out)
            return "return"
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._walk_expr(stmt.exc, state, out)
            return "return"
        if isinstance(stmt, ast.Break):
            return "break"
        if isinstance(stmt, ast.Continue):
            return "continue"
        if isinstance(stmt, ast.If):
            return self._walk_if(stmt, state, out)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._walk_for(stmt, state, out)
        if isinstance(stmt, ast.While):
            return self._walk_while(stmt, state, out)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._walk_expr(item.context_expr, state, out)
            return self._walk_body(stmt.body, state, out)
        if isinstance(stmt, ast.Try):
            self._walk_body(stmt.body, state, out)
            for handler in stmt.handlers:
                arm = Schedule()
                self._walk_body(handler.body, state, arm)
                if arm:
                    out.append(
                        Branch(
                            state.module.path, handler.lineno,
                            handler.col_offset, cond="except",
                            rank_dep=False, then=arm,
                        )
                    )
            self._walk_body(stmt.orelse, state, out)
            return self._walk_body(stmt.finalbody, state, out)
        if isinstance(stmt, ast.Assert):
            self._walk_expr(stmt.test, state, out)
            return None
        if isinstance(stmt, ast.Match):
            self._walk_expr(stmt.subject, state, out)
            for case in stmt.cases:
                arm = Schedule()
                self._walk_body(case.body, state, arm)
                if arm:
                    out.append(
                        Branch(
                            state.module.path, case.pattern.lineno,
                            case.pattern.col_offset, cond="case",
                            rank_dep=self._rank_tainted(stmt.subject, state),
                            then=arm,
                        )
                    )
            return None
        # Nested defs/classes execute at their caller's discretion;
        # imports, pass, global/nonlocal and deletes carry no events.
        return None

    def _walk_if(
        self, stmt: ast.If, state: _FrameState, out: Schedule
    ) -> str | None:
        self._walk_expr(stmt.test, state, out)
        tainted = frozenset(state.tainted)
        decision = decide_condition(stmt.test, self.rank, state.env, tainted)
        rank_related = self._rank_tainted(stmt.test, state)
        if rank_related and decision is not None:
            # Feasible-path selection: this abstract rank takes one arm.
            arm = stmt.body if decision else stmt.orelse
            return self._walk_body(arm, state, out)
        then = Schedule()
        orelse = Schedule()
        status_then = self._walk_body(stmt.body, state, then)
        status_else = self._walk_body(stmt.orelse, state, orelse)
        if then or orelse:
            out.append(
                Branch(
                    state.module.path, stmt.lineno, stmt.col_offset,
                    cond=_safe_unparse(stmt.test), rank_dep=rank_related,
                    then=then, orelse=orelse,
                )
            )
        if status_then is not None and status_then == status_else:
            return status_then
        return None

    def _walk_for(
        self, stmt: ast.For | ast.AsyncFor, state: _FrameState, out: Schedule
    ) -> str | None:
        self._walk_expr(stmt.iter, state, out)
        rank_dep = self._rank_tainted(stmt.iter, state)
        if rank_dep:
            self._taint_assign([stmt.target], stmt.iter, state)
        body = Schedule()
        status = self._walk_body(stmt.body, state, body)
        if body:
            out.append(
                Loop(
                    state.module.path, stmt.lineno, stmt.col_offset,
                    key=_safe_unparse(stmt.iter), rank_dep=rank_dep, body=body,
                )
            )
        self._walk_body(stmt.orelse, state, out)
        return "return" if status == "return" else None

    def _walk_while(
        self, stmt: ast.While, state: _FrameState, out: Schedule
    ) -> str | None:
        self._walk_expr(stmt.test, state, out)
        rank_dep = self._rank_tainted(stmt.test, state)
        body = Schedule()
        status = self._walk_body(stmt.body, state, body)
        if body:
            out.append(
                Loop(
                    state.module.path, stmt.lineno, stmt.col_offset,
                    key=_safe_unparse(stmt.test), rank_dep=rank_dep, body=body,
                )
            )
        self._walk_body(stmt.orelse, state, out)
        return "return" if status == "return" else None

    # -- expressions ---------------------------------------------------
    def _walk_expr(
        self, expr: ast.expr, state: _FrameState, out: Schedule
    ) -> None:
        """Emit events for every call inside *expr*, in source order.

        A conditional expression is walked as the ``if`` statement it
        abbreviates, so ``comm.gather(x) if rank else None`` is a branch.
        """
        for node in _calls_in_order(expr):
            if isinstance(node, ast.IfExp):
                self._walk_if(_as_if(node), state, out)
            else:
                self._handle_call(node, state, out)

    def _handle_call(
        self, call: ast.Call, state: _FrameState, out: Schedule
    ) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            name = func.attr
            root = _receiver_root(func)
            if root not in _NON_COMM_ROOTS:
                if name == "Publish":
                    out.append(self._publish_event(call, state))
                    return
                if name == "Await":
                    out.append(self._await_event(call, state))
                    return
                if name == "flush_publications":
                    # Transport-level flush of cells already buffered by
                    # Publish: the Publish that queued each cell is the
                    # schedule event, the flush carries no new ones.
                    return
                if name in COLLECTIVES:
                    out.append(self._collective_event(call, name, state))
                    return
                if name in _SEND_METHODS:
                    out.append(self._p2p_event(SendEvent, call, name, state))
                    return
                if name in _RECV_METHODS:
                    out.append(self._p2p_event(RecvEvent, call, name, state))
                    return
        target = self.index.resolve_call(call, state.module, state.class_name)
        if target is None:
            return
        tainted_params = frozenset(
            param
            for param, arg in _bind_args(target, call)
            if self._rank_tainted(arg, state)
        )
        out.extend(self._run_function(target, tainted_params))

    def _collective_event(
        self, call: ast.Call, name: str, state: _FrameState
    ) -> CollectiveEvent:
        meta = []
        for keyword in call.keywords:
            if keyword.arg in _UNIFORM_META_KEYS:
                meta.append(
                    (keyword.arg, self._meta_value(keyword.value, state))
                )
        # Positional reduce op: Allreduce(buffer, op) / allreduce(x, op).
        if name in ("Allreduce", "allreduce", "reduce") and len(call.args) > 1:
            meta.append(("op", self._meta_value(call.args[1], state)))
        for key, value in meta:
            if value[0] == TOP:
                continue
            if isinstance(value[1], str) and value[1].startswith("!rank:"):
                self.meta_taints.append(
                    (state.module.path, call.lineno, call.col_offset, name, key)
                )
        return CollectiveEvent(
            state.module.path, call.lineno, call.col_offset,
            name=name, meta=tuple(meta),
        )

    def _meta_value(self, node: ast.expr, state: _FrameState):
        """Lattice value of an op/root argument, rank-resolved.

        A conditional expression over a decidable rank test resolves to
        the arm this abstract rank takes — that is how
        ``op = MAX if rank == 0 else SUM`` becomes an SPMD102 mismatch.
        Rank-tainted metadata is marked so it can be flagged outright.
        """
        if isinstance(node, ast.IfExp):
            decision = decide_condition(
                node.test, self.rank, state.env, frozenset(state.tainted)
            )
            if decision is not None:
                return self._meta_value(node.body if decision else node.orelse,
                                        state)
        if isinstance(node, ast.Constant):
            return (CONST, node.value)
        if self._rank_tainted(node, state):
            return (EXPR, "!rank:" + _safe_unparse(node))
        if any(isinstance(sub, ast.Call) for sub in ast.walk(node)):
            return (TOP, None)
        return (EXPR, _safe_unparse(node))

    def _publish_event(
        self, call: ast.Call, state: _FrameState
    ) -> PublishEvent:
        """``comm.Publish(key, payload, dest, ...)`` as a schedule node.

        Publications are one-sided: they join the schedule tree (so the
        SCHED rules and trace tooling can see them) but neither the
        collective skeleton nor the SPMD2xx tag pool — asymmetry between
        producing and consuming ranks is the schedule working as designed.
        """
        key = self._meta_value(call.args[0], state) if call.args else (TOP,
                                                                       None)
        dest = (TOP, None)
        if len(call.args) > 2:
            dest = self._meta_value(call.args[2], state)
        for keyword in call.keywords:
            if keyword.arg == "dest":
                dest = self._meta_value(keyword.value, state)
        return PublishEvent(
            state.module.path, call.lineno, call.col_offset,
            key=key, dest=dest,
        )

    def _await_event(self, call: ast.Call, state: _FrameState) -> AwaitEvent:
        """``comm.Await(keys, source)`` as a schedule node."""
        keys = self._meta_value(call.args[0], state) if call.args else (TOP,
                                                                        None)
        source = (TOP, None)
        if len(call.args) > 1:
            source = self._meta_value(call.args[1], state)
        for keyword in call.keywords:
            if keyword.arg == "source":
                source = self._meta_value(keyword.value, state)
        return AwaitEvent(
            state.module.path, call.lineno, call.col_offset,
            keys=keys, source=source,
        )

    def _p2p_event(self, cls, call: ast.Call, name: str, state: _FrameState):
        methods = _SEND_METHODS if cls is SendEvent else _RECV_METHODS
        tag = _resolve_tag(_tag_node(call, methods[name]), state.env)
        if tag[0] == "dynamic":
            tag = (TOP, None)
        peer_index = 1 if cls is SendEvent else 0
        peer = (TOP, None)
        if len(call.args) > peer_index:
            peer = self._meta_value(call.args[peer_index], state)
        return cls(
            state.module.path, call.lineno, call.col_offset,
            tag=tag, peer=peer,
        )


def _safe_unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - malformed synthetic nodes
        return "<expr>"


def _calls_in_order(expr: ast.expr) -> list[ast.Call | ast.IfExp]:
    """Calls and conditional expressions in *expr*, in source order.

    A conditional expression stands for its whole subtree; its test and
    arms are walked by :meth:`_Interpreter._walk_if`.
    """
    found: list[ast.Call | ast.IfExp] = []
    pending: list[ast.AST] = [expr]
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Call, ast.IfExp)):
            found.append(node)
        if not isinstance(node, ast.IfExp):
            pending.extend(ast.iter_child_nodes(node))
    found.sort(key=lambda n: (n.lineno, n.col_offset))
    return found


def _as_if(node: ast.IfExp) -> ast.If:
    """The ``if`` statement a conditional expression abbreviates."""
    stmt = ast.If(
        test=node.test,
        body=[ast.Expr(node.body)],
        orelse=[ast.Expr(node.orelse)],
    )
    return ast.copy_location(stmt, node)


def _bind_args(target: FunctionInfo, call: ast.Call):
    """(param_name, arg_expr) pairs for positional and keyword args."""
    params = target.params
    if params and params[0] in ("self", "cls"):
        params = params[1:]
    bound = list(zip(params, call.args))
    named = set(params)
    for keyword in call.keywords:
        if keyword.arg in named:
            bound.append((keyword.arg, keyword.value))
    return bound


# ----------------------------------------------------------------------
# Schedule extraction and rule evaluation
# ----------------------------------------------------------------------
def extract_schedules(
    index: ProjectIndex, entries: list[FunctionInfo] | None = None
) -> dict[str, dict[str, Schedule]]:
    """``{entry_qualname: {rank_name: schedule}}`` plus meta taints.

    The per-entry dict also carries the interpreter's metadata taints
    under the reserved key ``"__meta_taints__"``.
    """
    if entries is None:
        entries = _default_entries(index)
    result: dict[str, dict] = {}
    for entry in entries:
        per_rank: dict[str, Schedule] = {}
        taints: list = []
        for rank in ABSTRACT_RANKS:
            interp = _Interpreter(index, rank)
            per_rank[rank.name] = interp.run(entry)
            taints.extend(interp.meta_taints)
        per_rank["__meta_taints__"] = taints  # type: ignore[assignment]
        result[entry.qualname] = per_rank
    return result


def _default_entries(index: ProjectIndex) -> list[FunctionInfo]:
    entries = index.entry_points()
    seen = {info.qualname for info in entries}
    for qualname, info in index.functions.items():
        if qualname in seen:
            continue
        if any(qualname.endswith(suffix) for suffix in _METHOD_ENTRIES):
            entries.append(info)
            seen.add(qualname)
    return sorted(entries, key=lambda info: info.qualname)


def analyze_protocol(
    modules: dict[str, ast.Module],
    *,
    index: ProjectIndex | None = None,
    declarations=None,
) -> list[Finding]:
    """Run the whole protocol pass over parsed *modules*.

    *declarations* overrides the registry's executor schedules (used by
    the fault-injection tests); by default SCHED rules run only when the
    registry module itself is part of the analyzed tree.
    """
    if index is None:
        index = ProjectIndex(modules)
    findings: list[Finding] = []
    schedules = extract_schedules(index)
    for qualname, per_rank in schedules.items():
        findings.extend(_check_divergence(qualname, per_rank))
        findings.extend(_check_meta_taints(per_rank["__meta_taints__"]))
        findings.extend(_check_rank_dep_loops(per_rank))
    findings.extend(_check_tag_pool(schedules))
    findings.extend(_check_declared_in_tree(index, declarations))
    return _dedupe(findings)


# -- SPMD101/SPMD102: collective agreement ------------------------------
def _check_divergence(qualname: str, per_rank: dict) -> list[Finding]:
    findings: list[Finding] = []
    ranks = [rank for rank in ABSTRACT_RANKS]
    views = {
        rank.name: collective_view(per_rank[rank.name]) for rank in ranks
    }
    # In-tree check: a rank-dependent branch whose collective arms differ
    # is divergence even when the condition is undecidable (rank % 2 ...).
    for rank in ranks:
        for node in iter_events(views[rank.name]):
            if isinstance(node, Branch) and node.rank_dep:
                diff = first_difference(node.then, node.orelse)
                if diff is not None:
                    event = diff[0] or diff[1] or node
                    findings.append(
                        Finding(
                            "SPMD101", event.path, event.line, event.col,
                            f"collective schedule diverges at rank-dependent "
                            f"branch '{node.cond}' in {qualname}: ranks taking "
                            "different arms reach different collective "
                            "sequences and deadlock (static SAN101/SAN103)",
                        )
                    )
    # Cross-rank check: the feasible paths of rank 0 and a non-zero rank
    # must produce identical collective skeletons.
    for left, right in zip(ranks, ranks[1:]):
        diff = first_difference(views[left.name], views[right.name])
        if diff is None:
            continue
        node_a, node_b, why = diff
        event = node_a or node_b
        rule = "SPMD102" if why == "meta" else "SPMD101"
        if why == "meta":
            message = (
                f"collective '{node_a.name}' metadata differs between "
                f"{left.describe()} and {right.describe()} in {qualname}: "
                f"{_render_meta(node_a.meta)} vs {_render_meta(node_b.meta)} "
                "(static SAN102)"
            )
        else:
            have, miss = (left, right) if node_a is not None else (right, left)
            message = (
                f"collective schedules diverge between {left.describe()} and "
                f"{right.describe()} in {qualname}: "
                f"{have.describe()} reaches {event.describe()} here, "
                f"{miss.describe()} does not — every peer deadlocks at this "
                "call (static SAN101/SAN103)"
            )
        findings.append(
            Finding(rule, event.path, event.line, event.col, message)
        )
    return findings


def _render_meta(meta: tuple) -> str:
    if not meta:
        return "{}"
    return "{" + ", ".join(
        f"{key}={render_value(value)}" for key, value in meta
    ) + "}"


def _check_meta_taints(taints: list) -> list[Finding]:
    return [
        Finding(
            "SPMD102", path, line, col,
            f"collective '{name}' takes a rank-dependent '{key}' argument — "
            "collective metadata must be identical on every rank "
            "(static SAN102)",
        )
        for path, line, col, name, key in taints
    ]


def _check_rank_dep_loops(per_rank: dict) -> list[Finding]:
    findings: list[Finding] = []
    for rank in ABSTRACT_RANKS:
        view = collective_view(per_rank[rank.name])
        findings.extend(_scan_loops(view, inside_rank_loop=False))
    return findings


def _scan_loops(schedule: Schedule, inside_rank_loop: bool) -> list[Finding]:
    findings: list[Finding] = []
    for node in schedule.items:
        if isinstance(node, CollectiveEvent) and inside_rank_loop:
            findings.append(
                Finding(
                    "SPMD103", node.path, node.line, node.col,
                    f"collective '{node.name}' inside a loop with a "
                    "rank-dependent trip count — each rank issues a "
                    "different number of collectives and the world "
                    "deadlocks at the first mismatch",
                )
            )
        elif isinstance(node, Branch):
            findings.extend(_scan_loops(node.then, inside_rank_loop))
            findings.extend(_scan_loops(node.orelse, inside_rank_loop))
        elif isinstance(node, Loop):
            findings.extend(
                _scan_loops(node.body, inside_rank_loop or node.rank_dep)
            )
    return findings


# -- SPMD201/SPMD202: interprocedural tag matching ----------------------
def _check_tag_pool(schedules: dict) -> list[Finding]:
    sends: dict[tuple, SendEvent] = {}
    recvs: dict[tuple, RecvEvent] = {}
    for per_rank in schedules.values():
        for rank in ABSTRACT_RANKS:
            for node in iter_events(per_rank[rank.name]):
                if isinstance(node, SendEvent):
                    sends[(node.path, node.line, node.col)] = node
                elif isinstance(node, RecvEvent):
                    recvs[(node.path, node.line, node.col)] = node
    if any(event.tag[0] == TOP for event in recvs.values()):
        # A dynamic receive may match any tag: the pool is wildcard and
        # no static claim about unmatched tags is sound.
        return []
    recv_tags = {event.tag for event in recvs.values()}
    send_tags = {event.tag for event in sends.values() if event.tag[0] != TOP}
    findings: list[Finding] = []
    for event in sends.values():
        if event.tag[0] == TOP or event.tag in recv_tags:
            continue
        findings.append(
            Finding(
                "SPMD201", event.path, event.line, event.col,
                f"send with tag {render_value(event.tag)} has no matching "
                "receive anywhere in the analyzed program (cross-module "
                "constant resolution) — the paired recv blocks forever "
                "(static SAN104)",
            )
        )
    for event in recvs.values():
        if event.tag in send_tags:
            continue
        findings.append(
            Finding(
                "SPMD202", event.path, event.line, event.col,
                f"receive with tag {render_value(event.tag)} that no send "
                "in the analyzed program produces — this recv blocks "
                "forever (static SAN104)",
            )
        )
    return findings


# -- SCHED0xx: dependency-schedule legality -----------------------------
#: Deterministic nested/sequential sample structures (dot-bracket); the
#: legality check is exact on each sample, so one counterexample is a
#: proof of illegality while agreement on all samples is strong evidence
#: (the dependency matrix theorem makes right-endpoint order exact).
_SCHED_SAMPLES = (
    "((()))",
    "(()(()))",
    "((())(()))()",
    "(((&)))((&))".replace("&", "()"),
)


def _publication_positions(s1, order: str):
    """arc index -> publication position under the declared *order*."""
    import numpy as np

    n = s1.n_arcs
    if order == "right-endpoint":
        ranking = np.argsort(s1.rights, kind="stable")
    elif order == "left-endpoint":
        ranking = np.argsort(s1.lefts, kind="stable")
    elif order == "reverse-right-endpoint":
        ranking = np.argsort(-s1.rights, kind="stable")
    else:
        return None
    positions = np.empty(n, dtype=np.int64)
    positions[ranking] = np.arange(n)
    return positions


def check_declared_schedules(declarations) -> list[tuple]:
    """Legality verdicts for executor schedule declarations.

    Returns ``(declaration, verdict, detail)`` tuples where *verdict* is
    one of ``"ok"``, ``"illegal-order"``, ``"no-publication"``,
    ``"inconsistent"``.  Declarations that do not claim soundness are
    skipped (the ``deferred`` ablation is *documented* as unsound).
    """
    from repro.analysis.depgraph import arc_dependency_pairs
    from repro.structure.dotbracket import from_dotbracket

    results = []
    for decl in declarations:
        verdict, detail = _verdict_of(decl, arc_dependency_pairs,
                                      from_dotbracket)
        results.append((decl, verdict, detail))
    return results


def _verdict_of(decl, arc_dependency_pairs, from_dotbracket):
    from repro.runtime.registry import ALGORITHMS, SYNC_MODES

    executor, _, sync_mode = decl.key.partition(":")
    if executor not in ALGORITHMS or (
        sync_mode and sync_mode not in SYNC_MODES
    ):
        return (
            "inconsistent",
            f"declaration {decl.key!r} names an executor/sync mode the "
            "registry does not know",
        )
    if not decl.claims_sound:
        return ("ok", "declared unsound; skipped")
    if decl.publishes == "none":
        return (
            "no-publication",
            f"schedule {decl.key!r} claims soundness but publishes no "
            "cells intra-stage: every d1/d2 read at a matched arc would "
            "see a stale peer row",
        )
    for text in _SCHED_SAMPLES:
        s1 = from_dotbracket(text)
        positions = _publication_positions(s1, decl.order)
        if positions is None:
            return (
                "inconsistent",
                f"schedule {decl.key!r} declares unknown publication "
                f"order {decl.order!r}",
            )
        for reader, dep in arc_dependency_pairs(s1):
            if positions[dep] >= positions[reader]:
                return (
                    "illegal-order",
                    f"schedule {decl.key!r} publishes arc {dep} (cell row "
                    f"{int(s1.lefts[dep]) + 1}) at position "
                    f"{int(positions[dep])}, after its reader arc {reader} "
                    f"at position {int(positions[reader])} — the d1/d2 "
                    f"read at the matched arc uses an unpublished cell "
                    f"(sample structure {text!r}; runtime verdict would "
                    "be SAN202/diverged tables)",
                )
    return ("ok", "publication order covers every dependency")


def _check_declared_in_tree(index: ProjectIndex, declarations) -> list[Finding]:
    registry_module = None
    for info in index.modules.values():
        if info.name.endswith("runtime.registry") or info.path.replace(
            "\\", "/"
        ).endswith("runtime/registry.py"):
            registry_module = info
            break
    if declarations is None:
        if registry_module is None:
            return []
        try:
            from repro.runtime.registry import executor_schedules
        except ImportError:  # pragma: no cover - package not importable
            return []
        declarations = executor_schedules()
    findings = []
    verdict_rules = {
        "illegal-order": "SCHED001",
        "no-publication": "SCHED002",
        "inconsistent": "SCHED003",
    }
    for decl, verdict, detail in check_declared_schedules(declarations):
        if verdict == "ok":
            continue
        path, line = _declaration_site(registry_module, decl)
        findings.append(Finding(verdict_rules[verdict], path, line, 0, detail))
    return findings


def _declaration_site(registry_module, decl) -> tuple[str, int]:
    if registry_module is None:
        return ("<declarations>", 1)
    try:
        with open(registry_module.path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if f'"{decl.key}"' in line or f"'{decl.key}'" in line:
                    return (registry_module.path, lineno)
    except OSError:  # pragma: no cover - racing file removal
        pass
    return (registry_module.path, 1)


def _dedupe(findings: list[Finding]) -> list[Finding]:
    seen = set()
    unique = []
    for finding in findings:
        key = (finding.rule, finding.path, finding.line, finding.col)
        if key in seen:
            continue
        seen.add(key)
        unique.append(finding)
    unique.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return unique
