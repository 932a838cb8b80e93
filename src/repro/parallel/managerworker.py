"""Manager-worker PRNA: dynamic load balancing (the HiCOMB 2009 contrast).

Section II discusses the earlier dynamic parallelization of this problem
(Snow, Aubanel & Evans, HiCOMB 2009): "a manager-worker approach in which
workers are responsible for task creation and a manager handles dynamic
load-balancing; however ... speedup is limited."  PRNA's static greedy
partition is the paper's answer to that limitation.

This module implements the manager-worker alternative over the same
substrate so the trade-off is measurable rather than anecdotal:

* rank 0 is the **manager**: it owns the arc-indexed memo table and walks the outer
  arcs in the same increasing-right-endpoint order (the dependency
  structure still forces rows to complete in order); within a row it hands
  individual child slices to whichever worker asks next, collects results,
  and publishes each completed row;
* ranks 1..P-1 are **workers**: request -> compute -> reply loops against
  their own row-synchronized replica of ``M``.

Dynamic assignment adapts to heterogeneous slice costs with no work model
at all — but every slice costs a request/response message pair through a
single manager, and the manager rank tabulates nothing.  Both effects show
up in the communication statistics and in the analytic model
(:func:`simulate_manager_worker`), reproducing the qualitative §II claim:
for this workload, whose costs are *predictable*, static balancing wins at
scale.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.memo import ArcMemoTable
from repro.core.slices import ENGINES, ROW_ENGINES
from repro.core.srna2 import parent_slice, run_stages
from repro.errors import SimulationError
from repro.mpi.communicator import Communicator
from repro.mpi.costmodel import ClusterSpec, CostModel, DEFAULT_CLUSTER
from repro.obs.tracer import Tracer
from repro.perf.model import WorkModel
from repro.runtime.context import ExecutionContext
from repro.runtime.registry import validate_choice
from repro.structure.arcs import Structure

__all__ = [
    "manager_worker",
    "manager_worker_rank",
    "ManagerWorkerResult",
    "simulate_manager_worker",
]

_TAG_REQUEST = 0x6000
_TAG_TASK = 0x6001
_TAG_RESULT = 0x6002


@dataclass
class ManagerWorkerResult:
    """Per-rank outcome of a manager-worker run."""

    score: int
    rank: int
    size: int
    #: The manager's complete table; ``None`` on workers, and on every
    #: rank when the manager wrote into a caller-owned *out* table.
    memo: ArcMemoTable | None
    tasks_computed: int

    def __int__(self) -> int:
        return self.score


def _poll_any(
    comm: Communicator, workers: list[int], tags: tuple[int, ...]
) -> tuple[int, int, object]:
    """Functional ``ANY_SOURCE`` receive over nonblocking probes."""
    while True:
        for worker in workers:
            for tag in tags:
                found, payload = comm._try_recv(worker, tag)
                if found:
                    return worker, tag, payload
        time.sleep(0.0002)


def manager_worker_rank(
    comm: Communicator,
    s1: Structure,
    s2: Structure,
    *,
    engine: str = "batched",
    out: ArcMemoTable | None = None,
) -> ManagerWorkerResult:
    """SPMD body: rank 0 manages, other ranks work.

    With a single rank the manager computes everything itself (degenerating
    to SRNA2), so the function is usable at any world size.  *out* is a
    zeroed ``(|A1|, |A2|)`` arc table (typically
    :meth:`ExecutionContext.result_memo`) the manager tabulates into
    instead of a private one; the result then carries ``memo=None``.
    """
    validate_choice("engine", engine)
    tabulate = ENGINES[engine]
    inner1 = s1.inner_ranges
    inner2 = s2.inner_ranges
    lefts1 = s1.lefts.tolist()
    rights1 = s1.rights.tolist()
    lefts2 = s2.lefts.tolist()
    rights2 = s2.rights.tolist()

    if comm.rank == 0:
        return _manager(comm, s1, s2, tabulate, ROW_ENGINES[engine], out)
    return _worker(
        comm, s1, s2, tabulate,
        inner1, inner2, lefts1, rights1, lefts2, rights2,
    )


def _manager(comm, s1, s2, tabulate, tabulate_row, out) -> ManagerWorkerResult:
    memo = out if out is not None else ArcMemoTable(s1, s2)
    workers = list(range(1, comm.size))
    if workers:
        _manage_stage_one(comm, s1, s2, memo.arcs, workers)
        score = int(parent_slice(memo.arcs, s1, s2, tabulate))
        memo.score = score
        for worker in workers:
            comm.send(("stop", -1, None), worker, _TAG_TASK)
        tasks_computed = 0
    else:
        # A single-rank world is SRNA2: one row-entry call per outer arc.
        score = int(run_stages(memo, s1, s2, tabulate, tabulate_row))
        tasks_computed = s1.n_arcs * s2.n_arcs
    score = comm.bcast(score, root=0)
    return ManagerWorkerResult(
        score, 0, comm.size, memo if out is None else None, tasks_computed
    )


def _manage_stage_one(comm, s1, s2, arcs, workers) -> None:
    """Hand out each outer arc's child slices, one task per free worker."""
    # Workers whose task request has arrived but not yet been answered.
    waiting: deque[int] = deque()
    for a in range(s1.n_arcs):
        row = arcs[a]
        next_b = 0
        pending = 0
        while next_b < s2.n_arcs and waiting:
            comm.send(("task", a, next_b), waiting.popleft(), _TAG_TASK)
            next_b += 1
            pending += 1
        while next_b < s2.n_arcs or pending:
            worker, tag, payload = _poll_any(
                comm, workers, (_TAG_RESULT, _TAG_REQUEST)
            )
            if tag == _TAG_REQUEST:
                if next_b < s2.n_arcs:
                    comm.send(("task", a, next_b), worker, _TAG_TASK)
                    next_b += 1
                    pending += 1
                else:
                    waiting.append(worker)
            else:
                b, value = payload
                row[b] = value
                pending -= 1
        # Row complete: publish it so later tasks read final values.
        for worker in workers:
            comm.send(("sync", a, row.copy()), worker, _TAG_TASK)


def _worker(
    comm, s1, s2, tabulate,
    inner1, inner2, lefts1, rights1, lefts2, rights2,
) -> ManagerWorkerResult:
    arcs = ArcMemoTable(s1, s2).arcs
    tasks_computed = 0
    comm.send(comm.rank, 0, _TAG_REQUEST)
    while True:
        kind, a, payload = comm.recv(0, _TAG_TASK)
        if kind == "stop":
            break
        if kind == "sync":
            arcs[a] = payload
            continue
        b = payload
        i1, j1 = lefts1[a], rights1[a]
        i2, j2 = lefts2[b], rights2[b]
        value = tabulate(
            arcs, s1, s2, i1 + 1, j1 - 1, i2 + 1, j2 - 1,
            ranges=(
                (int(inner1[a, 0]), int(inner1[a, 1])),
                (int(inner2[b, 0]), int(inner2[b, 1])),
            ),
        )
        tasks_computed += 1
        comm.send((b, int(value)), 0, _TAG_RESULT)
        comm.send(comm.rank, 0, _TAG_REQUEST)
    score = comm.bcast(None, root=0)
    return ManagerWorkerResult(
        score, comm.rank, comm.size, None, tasks_computed
    )


def manager_worker(
    s1: Structure,
    s2: Structure,
    n_ranks: int = 2,
    *,
    engine: str = "batched",
    backend: str = "thread",
    collect_stats: bool = False,
    tracer: Tracer | None = None,
) -> ManagerWorkerResult:
    """Convenience driver: run the scheme on *n_ranks*; the manager's result.

    The dynamic counterpart of :func:`repro.parallel.prna.prna`, and the
    same shape of shim: backend dispatch and stats enabling live in
    :class:`repro.runtime.ExecutionContext`.  The manager polls per-worker
    point-to-point queues, so the in-process backends (``"thread"``, or
    ``"self"`` for the degenerate single-rank world) are the natural fit.
    The manager tabulates into the context's
    :meth:`~ExecutionContext.result_memo`, which the returned result
    carries as ``memo``.
    """
    context = ExecutionContext(tracer=tracer, collect_stats=collect_stats)
    out = context.result_memo(s1, s2)
    results = context.launch(
        lambda comm: manager_worker_rank(comm, s1, s2, engine=engine, out=out),
        n_ranks=n_ranks,
        backend=backend,
    )
    out.score = results[0].score
    results[0].memo = out
    return results[0]


# ----------------------------------------------------------------------
# Analytic model: why the paper moved away from this scheme
# ----------------------------------------------------------------------
def simulate_manager_worker(
    s1: Structure,
    s2: Structure,
    n_ranks: int,
    *,
    cluster: ClusterSpec = DEFAULT_CLUSTER,
    work_model: WorkModel | None = None,
) -> float:
    """Simulated speedup of the manager-worker scheme.

    Per row, P-1 workers share the compute (dynamic assignment balances
    near-perfectly), but every slice costs a request + task + result
    message through the single manager (serialization: the manager handles
    ``3 |S2|`` messages per row), and the row publish costs one send per
    worker.  Compared against the same sequential model PRNA's simulator
    uses, so the two schemes' curves are directly comparable.
    """
    if n_ranks < 1:
        raise SimulationError(f"n_ranks must be >= 1, got {n_ranks}")
    wm = work_model or WorkModel.default()
    cost = CostModel(cluster)
    sequential = wm.total_sequential_seconds(s1, s2)
    if n_ranks == 1:
        return 1.0
    n_workers = n_ranks - 1
    inside1 = s1.inside_count.astype(np.float64)
    total_inside2 = float(s2.inside_count.sum())
    per_message = cost.p2p(64)
    row_bytes = s2.n_arcs * 8
    total = wm.preprocessing_seconds(s1, s2) + wm.parent_slice_seconds(s1, s2)
    contention = max(
        cluster.contention_factor(rank, n_ranks) for rank in range(n_ranks)
    )
    for a in range(s1.n_arcs):
        compute = (
            wm.seconds_per_cell * float(inside1[a]) * total_inside2
            + wm.seconds_per_slice * s2.n_arcs
        )
        worker_time = compute / n_workers * contention
        # The manager serially touches three messages per slice plus the
        # row publish; whichever side is the bottleneck paces the row.
        manager_time = 3 * s2.n_arcs * per_message + n_workers * cost.p2p(
            row_bytes
        )
        total += max(worker_time, manager_time)
    return sequential / total
