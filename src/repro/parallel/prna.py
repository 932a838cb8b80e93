"""PRNA — the paper's parallel algorithm (Algorithm 4).

Structure (Section V):

* **preprocessing** — compute per-column work estimates and fix a static
  column partition (Graham's greedy algorithm by default); every rank
  derives the identical partition deterministically, so no communication is
  needed;
* **stage one (parallel)** — for each arc ``(i1, j1)`` of ``S1`` by
  increasing ``j1``, every rank tabulates the child slices of its *owned*
  columns, then the completed memo row is synchronized with an
  ``Allreduce(MAX)`` ("MPI_Allreduce with the beginning address of the row
  and number of columns, using the MPI_MAX operation").  The memo is the
  arc-indexed table (:class:`~repro.core.memo.ArcMemoTable`), so that row
  is the outer arc's ``|A2|`` cells, not ``m``;
* **stage two (sequential)** — rank 0 tabulates the parent slice from the
  fully synchronized table and broadcasts the score.

Correctness rests on the same ordering argument as SRNA2: a slice spawned
under arc ``(i1, j1)`` only reads memo rows of arcs with smaller right
endpoints, which were synchronized in earlier outer iterations — shared
endpoints being forbidden, no slice ever reads its *own* row.

The function is written in SPMD style against the abstract communicator, so
the identical code runs on the thread backend, the process backend, and the
trivial :class:`~repro.mpi.communicator.SelfCommunicator` (where it reduces
to SRNA2 plus bookkeeping — an equivalence the tests assert).  Virtual-time
charging is opt-in: ``charge="analytic"`` charges the calibrated work
model's seconds to each rank's clock, ``charge=None`` skips charging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.instrument import Instrumentation
from repro.core.memo import ArcMemoTable
from repro.core.slices import ENGINES, ROW_ENGINES
from repro.core.srna2 import parent_slice
from repro.errors import CommunicatorError
from repro.mpi.communicator import Communicator
from repro.obs.tracer import NULL_SPAN, Tracer
from repro.parallel.dataflow import dataflow_stage_one
from repro.parallel.schedule import StageOneState, row_barrier_stage_one
from repro.perf.model import WorkModel
from repro.runtime.context import ExecutionContext, sanitize_communicator
from repro.runtime.registry import SYNC_MODES, validate_choice
from repro.scheduling.partition import PARTITIONERS, Partition
from repro.scheduling.workload import column_weights
from repro.structure.arcs import Structure

__all__ = [
    "PRNAResult",
    "prna_rank",
    "prna",
    "SYNC_MODES",
]


@dataclass
class PRNAResult:
    """Per-rank outcome of a PRNA run."""

    score: int
    rank: int
    size: int
    partition: Partition
    #: This rank's memo table.  ``None`` when the run wrote rank 0's table
    #: into a caller-owned *out* table (:func:`prna_rank`); :func:`prna`
    #: then attaches that table, rank 0's consolidated memo, here.
    memo: ArcMemoTable | None
    simulated_time: float | None = None
    instrumentation: Instrumentation | None = None
    #: ``CommStats.as_dict()`` of this rank's communicator, when stats were
    #: enabled (``prna(collect_stats=True)`` or ``comm.enable_stats()``) —
    #: Allreduce round/byte counts for experiment reports.
    comm_stats: dict | None = None

    def __int__(self) -> int:
        return self.score


def _validate_choices(
    partitioner: str, engine: str, sync_mode: str, charge: str | None
) -> None:
    """Reject unknown names with a ``ValueError`` before any work starts."""
    validate_choice("partitioner", partitioner)
    validate_choice("engine", engine)
    validate_choice("sync_mode", sync_mode)
    if charge not in (None, "analytic"):
        raise ValueError(
            f"unknown charge policy {charge!r}; choose from (None, 'analytic')"
        )


def prna_rank(
    comm: Communicator,
    s1: Structure,
    s2: Structure,
    *,
    partitioner: str = "greedy",
    engine: str = "batched",
    sync_mode: str = "row",
    charge: str | None = None,
    work_model: WorkModel | None = None,
    validate: bool = False,
    instrumentation: Instrumentation | None = None,
    tracer: Tracer | None = None,
    shared_memory: bool = False,
    sanitize: bool = False,
    sanitize_timeout: float = 30.0,
    out: ArcMemoTable | None = None,
) -> PRNAResult:
    """Run one rank's share of PRNA (call from SPMD context).

    Parameters
    ----------
    engine:
        Slice engine.  Each rank makes one row-entry call
        (:data:`repro.core.slices.ROW_ENGINES`) per outer arc over its
        owned columns — the column partition *is* the batch definition;
        with the default ``"batched"`` those slices advance together.
        Rank 0 tabulates the parent slice with the engine's
        :data:`~repro.core.slices.ENGINES` kernel.
    shared_memory:
        Retained for callers that still pass ``Plan.shared_memory``; only
        ``False`` is accepted (:class:`ValueError` otherwise).  Row
        synchronization always reduces over the communicator.
    sync_mode:
        ``"row"`` is the paper's algorithm.  ``"dataflow"`` replaces the
        per-row collective with dependency-driven point-to-point cell
        publication (:mod:`repro.parallel.dataflow`): each rank awaits
        exactly the remote cells its wait-set demands and publishes
        completed owned cells with adaptive coalescing — no global
        barrier; bit-identical scores and (on rank 0) memo tables.
    charge:
        ``None`` or ``"analytic"`` (work model seconds) — feeds the
        communicator's virtual clock.
    validate:
        After stage one, allgather a digest of the memo table and raise
        :class:`CommunicatorError` if ranks disagree (catches broken
        synchronization schemes).
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`.  Each rank records its
        per-row tabulation spans (category ``"compute"``) and collective
        waits (category ``"comm"``) on its own track, yielding the
        Figure-8-style timeline ``repro-rna trace-report`` summarizes.
    sanitize:
        Wrap the communicator in
        :class:`repro.check.SanitizedCommunicator` and register the memo
        table for race detection: collectives are cross-validated before
        they run (hangs become timeout diagnostics after
        *sanitize_timeout* seconds), and each row ``Allreduce`` checks
        that every rank wrote only its owned columns.  Results are
        bit-identical to unsanitized runs; the validation overhead is
        accounted in ``CommStats.sanitizer_checks``/``sanitizer_ns`` and
        (with *tracer*) as ``"sanitizer"``-category spans.
    out:
        A zeroed ``(|A1|, |A2|)`` arc table that receives rank 0's final
        memo, typically :meth:`ExecutionContext.result_memo` shared
        by every rank of the launch.  Rank 0 tabulates into it directly,
        and every rank returns ``memo=None`` so no table travels back with
        the result.
    """
    _validate_choices(partitioner, engine, sync_mode, charge)
    if shared_memory:
        raise ValueError(
            "shared_memory=True is no longer supported: memo rows "
            "synchronize over the communicator"
        )
    if sanitize:
        comm = sanitize_communicator(
            comm, timeout=sanitize_timeout, tracer=tracer
        )
    if charge == "analytic" and work_model is None:
        work_model = WorkModel.default()
    tabulate = ENGINES[engine]

    inst = instrumentation
    shape = (s1.n_arcs, s2.n_arcs)
    if out is not None and out.shape != shape:
        raise ValueError(f"out table has shape {out.shape}, expected {shape}")

    if tracer is not None:

        def span(name: str, category: str, **args):
            return tracer.span(name, rank=comm.rank, category=category, **args)

    else:

        def span(name: str, category: str, **args):
            return NULL_SPAN

    def charge_compute(seconds: float) -> None:
        if charge == "analytic":
            comm.charge_compute(seconds)

    # ------------------------------------------------------------------
    # Preprocessing: identical deterministic partition on every rank.
    # ------------------------------------------------------------------
    weights = column_weights(s1, s2)
    partition = PARTITIONERS[partitioner](weights, comm.size)
    owned = partition.tasks_of(comm.rank)
    memo = out if out is not None and comm.rank == 0 else ArcMemoTable(s1, s2)
    owned_arr = np.asarray(owned, dtype=np.int64)
    if sanitize:
        # Register the table with the sanitizer: this rank may only write
        # its owned columns (S2 arcs) between row synchronizations.
        comm.guard_memo(memo, owned_columns=owned_arr)
    values = memo.arcs
    # One row-entry call per outer arc over the owned columns: the rank's
    # partition defines the batch.
    state = StageOneState(
        values=values,
        partition=partition,
        owned=owned,
        owned_arr=owned_arr,
        row=ROW_ENGINES[engine],
        inst=inst,
        work_model=work_model,
        span=span,
        charge=charge_compute,
    )
    if work_model is not None:
        charge_compute(work_model.preprocessing_seconds(s1, s2))

    # ------------------------------------------------------------------
    # Stage one, behind the schedule abstraction: the paper's row
    # barrier or the dependency-driven dataflow executor.  Explicit
    # dispatch (not a registry lookup) so the protocol verifier inlines
    # the executor that actually runs.
    # ------------------------------------------------------------------
    stage_ctx = inst.stage("stage_one") if inst is not None else None
    if stage_ctx is not None:
        stage_ctx.__enter__()
    dataflow_plan = None
    try:
        if sync_mode == "dataflow":
            dataflow_plan = dataflow_stage_one(comm, s1, s2, state)
        else:
            row_barrier_stage_one(comm, s1, s2, state)
    finally:
        if stage_ctx is not None:
            stage_ctx.__exit__(None, None, None)

    if validate:
        if sync_mode == "dataflow":
            # Ranks deliberately hold complementary tables (only rank 0
            # consolidates), so whole-table digests cannot agree.  Check
            # instead that every rank's owned block is bit-identical to
            # the corresponding block of rank 0's consolidated table.
            mine = values[:, np.sort(owned_arr)]
            digest = int(mine.sum()) ^ hash(mine.tobytes())
            digests = comm.allgather(digest)
            ok = True
            if comm.rank == 0:
                for q in range(comm.size):
                    cols_q = dataflow_plan.col_blocks[q]
                    if len(cols_q) == 0:
                        continue
                    block = values[:, cols_q]
                    if digests[q] != int(block.sum()) ^ hash(block.tobytes()):
                        ok = False
            ok = comm.bcast(ok, root=0)
            if not ok:
                raise CommunicatorError(
                    "dataflow consolidation diverged: a rank's owned memo "
                    "block does not match rank 0's consolidated table — "
                    "the publication protocol lost or corrupted cells"
                )
        else:
            digest = int(values.sum()) ^ hash(values.tobytes())
            digests = comm.allgather(digest)
            if any(d != digests[0] for d in digests):
                raise CommunicatorError(
                    "memoization tables diverged across ranks after stage "
                    "one — the row synchronization lost or corrupted cells"
                )

    # ------------------------------------------------------------------
    # Stage two: sequential on rank 0, score broadcast to all.
    # ------------------------------------------------------------------
    stage_ctx = inst.stage("stage_two") if inst is not None else None
    if stage_ctx is not None:
        stage_ctx.__enter__()
    try:
        if comm.rank == 0:
            with span("parent_slice", "compute"):
                score = int(
                    parent_slice(
                        values, s1, s2, tabulate, instrumentation=inst
                    )
                )
            if work_model is not None:
                charge_compute(work_model.parent_slice_seconds(s1, s2))
        else:
            score = -1
        with span("bcast_wait", "comm"):
            score = comm.bcast(score, root=0)
        # Every rank stores the agreed score after the final broadcast, so
        # the identical write is race-free by construction.
        memo.score = score
    finally:
        if stage_ctx is not None:
            stage_ctx.__exit__(None, None, None)

    return PRNAResult(
        score=score,
        rank=comm.rank,
        size=comm.size,
        partition=partition,
        memo=memo if out is None else None,
        simulated_time=comm.simulated_time,
        instrumentation=inst,
        comm_stats=comm.stats.as_dict() if comm.stats is not None else None,
    )


def prna(
    s1: Structure,
    s2: Structure,
    n_ranks: int = 1,
    *,
    backend: str = "thread",
    partitioner: str = "greedy",
    engine: str = "batched",
    sync_mode: str = "row",
    charge: str | None = None,
    work_model: WorkModel | None = None,
    cost_model=None,
    validate: bool = False,
    tracer: Tracer | None = None,
    collect_stats: bool = False,
    sanitize: bool = False,
    sanitize_timeout: float = 30.0,
) -> PRNAResult:
    """Convenience driver: run PRNA on *n_ranks* and return rank 0's result.

    ``backend`` is ``"thread"``, ``"process"`` or ``"self"`` (the latter
    requires ``n_ranks == 1``).  When *cost_model* is given, virtual clocks
    are enabled and the returned result carries the simulated time.

    With *tracer*, every rank records its timeline on its own track, on
    any backend (process ranks' spans come back through
    :meth:`ExecutionContext.launch`); with ``collect_stats=True`` the
    result carries the rank's
    :class:`~repro.mpi.communicator.CommStats` counters as a dict.

    ``sanitize=True`` runs the whole computation under the runtime SPMD
    sanitizer (see :func:`prna_rank` and ``docs/static-analysis.md``);
    results stay bit-identical, collective hangs become diagnostics.

    Backend dispatch, stats enabling and tracer ownership live in
    :class:`repro.runtime.ExecutionContext`; this driver is a thin shim
    binding :func:`prna_rank` into ``context.launch``.  Rank 0 writes its
    table into the context's :meth:`~ExecutionContext.result_memo`, so
    only scores and counters cross the result pipes; the returned
    result's ``memo`` is that table.
    """
    _validate_choices(partitioner, engine, sync_mode, charge)
    context = ExecutionContext(tracer=tracer, collect_stats=collect_stats)
    out = context.result_memo(s1, s2)

    def rank_main(comm: Communicator) -> PRNAResult:
        return prna_rank(
            comm, s1, s2,
            partitioner=partitioner, engine=engine, sync_mode=sync_mode,
            charge=charge, work_model=work_model, validate=validate,
            tracer=tracer, sanitize=sanitize,
            sanitize_timeout=sanitize_timeout, out=out,
        )

    results = context.launch(
        rank_main, n_ranks=n_ranks, backend=backend, cost_model=cost_model
    )
    if cost_model is not None:
        result, simulated = results[0]
        result.simulated_time = simulated
    else:
        result = results[0]
    out.score = result.score
    result.memo = out
    return result
