"""Layer 3 of the solver stack: the :class:`Solver` facade.

``solve(s1, s2)`` and ``solve_batch(query, targets)`` are the library's
public default path: ``algorithm="auto"`` / ``engine="auto"`` hand the
choice to the :class:`~repro.runtime.plan.Planner`, execution machinery is
owned by an :class:`~repro.runtime.context.ExecutionContext`, and every
solve appends a run record carrying the serialized plan.  ``mcos``,
``prna``, ``search`` and the CLI are thin shims over this module.

Import discipline: this module is imported by ``repro.core.api`` and
``repro.batch``, so it must not import them at module scope; the parallel
drivers import :mod:`repro.runtime.context`, so they are imported lazily
inside the dispatch methods.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.core.backtrace import MatchedPair, backtrace
from repro.core.checkpoint import srna2_checkpointed
from repro.core.dense import dense_mcos
from repro.core.instrument import Instrumentation
from repro.core.memo import ArcMemoTable, DenseMemoTable
from repro.core.srna1 import srna1
from repro.core.srna2 import srna2
from repro.core.topdown import topdown_mcos
from repro.errors import ReproError
from repro.mpi.costmodel import CostModel
from repro.obs.runrecord import RunRecord
from repro.runtime.context import ExecutionContext
from repro.runtime.plan import Plan, Planner, ResourceHints
from repro.runtime.registry import AUTO, PARALLEL_ALGORITHMS
from repro.structure.arcs import Structure
from repro.structure.dotbracket import from_dotbracket

__all__ = ["SolveResult", "Solver", "score_pair", "solve", "solve_batch"]


def _coerce(structure: Structure | str) -> Structure:
    """Accept a Structure or a dot-bracket string."""
    if isinstance(structure, Structure):
        return structure
    return from_dotbracket(structure)


@dataclass
class SolveResult:
    """Outcome of one planned solve."""

    score: int
    plan: Plan
    matched_pairs: list[MatchedPair] | None = None
    instrumentation: Instrumentation | None = field(default=None, repr=False)
    memo: ArcMemoTable | DenseMemoTable | None = field(default=None, repr=False)
    comm_stats: dict[str, Any] | None = None
    simulated_time: float | None = None
    record: RunRecord | None = field(default=None, repr=False)

    @property
    def algorithm(self) -> str:
        """The algorithm the plan resolved to (what actually ran)."""
        return self.plan.algorithm

    def __int__(self) -> int:
        return self.score


def _run_sequential(
    s1: Structure,
    s2: Structure,
    algorithm: str,
    engine: str | None,
    *,
    instrumentation: Instrumentation | None = None,
    with_backtrace: bool = False,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 64,
) -> tuple[int, ArcMemoTable | DenseMemoTable | None, list[MatchedPair] | None]:
    """Dispatch one sequential algorithm; (score, memo, matched_pairs)."""
    if with_backtrace and algorithm not in ("srna1", "srna2"):
        raise ValueError(
            f"with_backtrace requires algorithm 'srna1' or 'srna2', "
            f"not {algorithm!r}"
        )
    if checkpoint_path is not None and algorithm != "srna2":
        raise ValueError(
            f"checkpointing requires algorithm 'srna2', not {algorithm!r}"
        )
    if algorithm == "srna2":
        if checkpoint_path is not None:
            run = srna2_checkpointed(
                s1, s2, checkpoint_path,
                every=checkpoint_every, engine=engine or "batched",
                instrumentation=instrumentation,
            )
        else:
            run = srna2(
                s1, s2, engine=engine or "batched",
                instrumentation=instrumentation,
            )
        pairs = backtrace(run.memo, s1, s2) if with_backtrace else None
        return run.score, run.memo, pairs
    if algorithm == "srna1":
        run1 = srna1(s1, s2, instrumentation=instrumentation)
        pairs = backtrace(run1.memo, s1, s2) if with_backtrace else None
        return run1.score, run1.memo, pairs
    if algorithm == "topdown":
        return topdown_mcos(s1, s2, instrumentation=instrumentation), None, None
    if algorithm == "dense":
        return dense_mcos(s1, s2, instrumentation=instrumentation), None, None
    raise ValueError(f"algorithm {algorithm!r} is not sequential")


def score_pair(
    s1: Structure,
    s2: Structure,
    *,
    algorithm: str = "srna2",
    engine: str | None = None,
) -> int:
    """Score one pair with a sequential algorithm (no planning, no record).

    The single per-pair dispatch the batch search workers call — plain
    positional data in, plain ``int`` out, picklable by module path.
    """
    score, _, _ = _run_sequential(s1, s2, algorithm, engine)
    return score


class Solver:
    """The facade over planner + context + algorithm dispatch.

    One :class:`Solver` may serve many solves; per-solve state lives in
    the plan and the execution context.  A caller-owned *context* (e.g.
    the CLI's, carrying its tracer and run log) is reused across solves;
    otherwise each solve owns a fresh ephemeral one.
    """

    def __init__(
        self,
        hints: ResourceHints | None = None,
        *,
        planner: Planner | None = None,
        context: ExecutionContext | None = None,
    ):
        self.planner = planner if planner is not None else Planner(hints)
        self.context = context

    # ------------------------------------------------------------------
    def plan(
        self, s1: Structure | str, s2: Structure | str, **options: Any
    ) -> Plan:
        """Resolve a plan without executing it (see :meth:`Planner.plan`)."""
        return self.planner.plan(_coerce(s1), _coerce(s2), **options)

    # ------------------------------------------------------------------
    def solve(
        self,
        s1: Structure | str,
        s2: Structure | str,
        *,
        plan: Plan | None = None,
        algorithm: str = AUTO,
        engine: str = AUTO,
        backend: str | None = None,
        n_ranks: int | None = None,
        partitioner: str = "greedy",
        sync_mode: str = AUTO,
        sanitize: bool = False,
        sanitize_timeout: float = 30.0,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 64,
        with_backtrace: bool = False,
        instrument: bool = False,
        instrumentation: Instrumentation | None = None,
        collect_stats: bool = False,
        cost_model: CostModel | None = None,
        validate: bool = False,
        context: ExecutionContext | None = None,
        record_kind: str = "solve",
    ) -> SolveResult:
        """Plan (unless *plan* is given) and execute one comparison.

        All ``"auto"`` choices are resolved by the planner; the resolved
        :class:`Plan` is returned on the result and serialized into the
        run record appended to the context.  The record's ``wall_s``
        metric is the measured execution time (planning excluded), the
        quantity ``plan.estimated_seconds`` predicts.  Only sequential
        plans fill *instrumentation* / *instrument*; a parallel result's
        ``instrumentation`` is ``None`` and its counters are
        ``comm_stats`` (with *collect_stats*).
        """
        s1 = _coerce(s1)
        s2 = _coerce(s2)
        ctx = context or self.context
        if ctx is None:
            ctx = ExecutionContext(
                collect_stats=collect_stats,
                sanitize=sanitize,
                sanitize_timeout=sanitize_timeout,
            )
        if plan is None:
            plan = self.planner.plan(
                s1, s2,
                algorithm=algorithm, engine=engine, backend=backend,
                n_ranks=n_ranks, partitioner=partitioner,
                sync_mode=sync_mode, sanitize=sanitize,
                checkpoint_path=checkpoint_path,
                with_backtrace=with_backtrace,
            )
        if instrumentation is not None:
            inst = instrumentation
        elif instrument:
            inst = ctx.instrumentation()
        else:
            inst = None

        start = time.perf_counter()
        if plan.algorithm in PARALLEL_ALGORITHMS:
            result = self._solve_parallel(
                s1, s2, plan, ctx,
                with_backtrace=with_backtrace,
                collect_stats=collect_stats,
                cost_model=cost_model,
                validate=validate,
                sanitize_timeout=sanitize_timeout,
            )
        else:
            score, memo, pairs = _run_sequential(
                s1, s2, plan.algorithm, plan.engine,
                instrumentation=inst,
                with_backtrace=with_backtrace,
                checkpoint_path=plan.checkpoint_path,
                checkpoint_every=checkpoint_every,
            )
            result = SolveResult(
                score=score, plan=plan, matched_pairs=pairs,
                instrumentation=inst, memo=memo,
            )
        wall_s = time.perf_counter() - start
        result.record = ctx.record(
            record_kind,
            parameters={
                "s1_arcs": s1.n_arcs, "s2_arcs": s2.n_arcs,
                "s1_length": s1.length, "s2_length": s2.length,
            },
            metrics={
                "score": result.score,
                "wall_s": wall_s,
                **(
                    {"comm_stats": result.comm_stats}
                    if result.comm_stats is not None else {}
                ),
            },
            plan=plan,
        )
        return result

    def _solve_parallel(
        self,
        s1: Structure,
        s2: Structure,
        plan: Plan,
        ctx: ExecutionContext,
        *,
        with_backtrace: bool,
        collect_stats: bool,
        cost_model: CostModel | None,
        validate: bool,
        sanitize_timeout: float,
    ) -> SolveResult:
        if with_backtrace:
            raise ValueError(
                f"with_backtrace requires algorithm 'srna1' or 'srna2', "
                f"not {plan.algorithm!r}"
            )
        if plan.algorithm == "prna":
            from repro.parallel.prna import prna

            res = prna(
                s1, s2, plan.n_ranks,
                backend=plan.backend,
                partitioner=plan.partitioner,
                engine=plan.engine or "batched",
                sync_mode=plan.sync_mode,
                cost_model=cost_model,
                validate=validate,
                tracer=ctx.tracer,
                collect_stats=collect_stats or ctx.collect_stats,
                sanitize=plan.sanitize or ctx.sanitize,
                sanitize_timeout=sanitize_timeout,
            )
            return SolveResult(
                score=res.score, plan=plan,
                instrumentation=res.instrumentation, memo=res.memo,
                comm_stats=res.comm_stats,
                simulated_time=res.simulated_time,
            )
        if plan.algorithm == "managerworker":
            from repro.parallel.managerworker import manager_worker_rank

            out = ctx.result_memo(s1, s2)
            results = ctx.launch(
                lambda comm: manager_worker_rank(
                    comm, s1, s2, engine=plan.engine or "batched", out=out
                ),
                n_ranks=plan.n_ranks,
                backend=plan.backend,
                cost_model=cost_model,
            )
            first = results[0]
            simulated = None
            if cost_model is not None:
                first, simulated = first
            out.score = first.score
            return SolveResult(
                score=first.score, plan=plan, memo=out,
                simulated_time=simulated,
            )
        raise ValueError(f"algorithm {plan.algorithm!r} is not parallel")

    # ------------------------------------------------------------------
    def solve_batch(
        self,
        query: Structure | str,
        targets: Mapping[str, Structure | str] | Iterable[tuple[str, Structure | str]],
        *,
        algorithm: str = AUTO,
        engine: str = AUTO,
        n_workers: int = 1,
        context: ExecutionContext | None = None,
        record_kind: str = "search",
    ) -> list[Any]:
        """Plan and run a database search; ranked ``SearchHit`` list.

        Pairs are independent, so the plan parallelizes *across* them
        (process pool) and each pair runs a sequential algorithm.
        Back-compat contract of :func:`repro.batch.search` preserved:
        hits sorted best-first with name tie-break, ``ReproError`` on a
        bad worker count.
        """
        from repro import batch as batch_mod

        if n_workers < 1:
            raise ReproError(f"n_workers must be >= 1, got {n_workers}")
        query = _coerce(query)
        raw_items = (
            targets.items() if hasattr(targets, "items") else targets
        )
        items = [(name, _coerce(target)) for name, target in raw_items]
        ctx = context or self.context
        if ctx is None:
            ctx = ExecutionContext()
        plan = self.planner.plan_batch(
            query, dict(items),
            algorithm=algorithm, engine=engine, n_workers=n_workers,
        )
        hits = batch_mod.run_search(
            query, items,
            algorithm=plan.algorithm, engine=plan.engine,
            n_workers=plan.n_ranks, tracer=ctx.tracer,
        )
        ctx.record(
            record_kind,
            parameters={
                "query_arcs": query.n_arcs, "n_targets": len(items),
            },
            metrics={
                "best_score": hits[0].score if hits else None,
                "best_target": hits[0].name if hits else None,
            },
            plan=plan,
        )
        return hits


# ----------------------------------------------------------------------
# Module-level conveniences: the public default path.
# ----------------------------------------------------------------------
def solve(
    s1: Structure | str,
    s2: Structure | str,
    *,
    hints: ResourceHints | None = None,
    **options: Any,
) -> SolveResult:
    """Plan-and-solve one comparison (see :meth:`Solver.solve`)."""
    return Solver(hints).solve(s1, s2, **options)


def solve_batch(
    query: Structure | str,
    targets: Mapping[str, Structure | str] | Iterable[tuple[str, Structure | str]],
    *,
    hints: ResourceHints | None = None,
    **options: Any,
) -> list[Any]:
    """Plan-and-run a database search (see :meth:`Solver.solve_batch`)."""
    return Solver(hints).solve_batch(query, targets, **options)
