"""Stage-one schedule abstraction: executors behind one interface.

PRNA's stage one admits more than one synchronization discipline over the
same recurrence.  This module defines the executor *interface* and the
paper's bulk-synchronous implementation; the dependency-driven dataflow
implementation lives in :mod:`repro.parallel.dataflow`.  An executor is a
module-level function

    ``executor(comm, s1, s2, sync_mode, state) -> Any``

that tabulates every rank-owned column of every outer ``S1`` arc into
``state.values`` and guarantees that, by stage two, rank 0 can read every
``(arc row, arc column)`` memo cell.  How the cells produced by *other*
ranks become visible — a collective per row, a collective per pair, or
point-to-point cell publication — is the executor's whole identity.

Keeping executors as module-level functions (rather than methods behind
dynamic dispatch) is deliberate: ``repro.check``'s protocol pass treats any
module-level function with a ``comm`` parameter as an SPMD entry point
and can inline direct calls, so each schedule's communication pattern is
machine-checked both standalone and as inlined into ``prna_rank``.

Analyzability note: the protocol interpreter's taint heuristic treats
anything assigned from an ``owned``-named value as rank-dependent, and
:class:`StageOneState` carries the owned partition — so ``state`` itself
is rank-tainted at the call site.  Executors therefore receive ``s1``,
``s2`` and ``sync_mode`` as *separate, untainted* parameters and must
drive every loop range and every branch that contains a collective off
those (never off ``state.…``); otherwise the verifier would see a
collective under a rank-dependent trip count (SPMD103).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.mpi.communicator import Communicator, ReduceOp
from repro.structure.arcs import Structure

__all__ = ["StageOneState", "row_barrier_stage_one"]


@dataclass
class StageOneState:
    """Rank-local context a stage-one executor consumes.

    Bundles everything beyond ``(comm, s1, s2, sync_mode)``: the memo
    buffer, the owned column partition, the slice engine, and the
    observability hooks (``span`` yields tracer spans;
    ``measure_start``/``measure_stop`` feed the virtual clock).  Built
    once by :func:`repro.parallel.prna.prna_rank` and handed to whichever
    executor the sync mode selects.
    """

    values: np.ndarray
    partition: Any
    owned: list
    owned_arr: np.ndarray
    owned_cols: np.ndarray
    tabulate: Callable
    batch: Callable | None
    inst: Any
    work_model: Any
    span: Callable
    measure_start: Callable
    measure_stop: Callable


def row_barrier_stage_one(
    comm: Communicator,
    s1: Structure,
    s2: Structure,
    sync_mode: str,
    state: StageOneState,
) -> None:
    """The paper's bulk-synchronous stage one (Algorithm 4).

    For each outer arc by increasing right endpoint, tabulate the owned
    child slices, then synchronize the completed memo row with one
    ``Allreduce(MAX)`` (``sync_mode="row"``).  ``"pair"`` is the chatty
    granularity ablation (a collective per arc *pair*); ``"deferred"``
    skips intra-stage synchronization entirely and is documented-unsound
    for multi-rank worlds (the failure-detection tests rely on it).
    """
    values = state.values
    tabulate = state.tabulate
    batch = state.batch if sync_mode != "pair" else None
    inst = state.inst
    work_model = state.work_model
    span = state.span
    measure_start = state.measure_start
    measure_stop = state.measure_stop
    owned = state.owned
    owned_set = set(owned)
    owned_arr = state.owned_arr
    owned_cols = state.owned_cols
    inner1 = s1.inner_ranges
    inner2 = s2.inner_ranges
    lefts1 = s1.lefts.tolist()
    rights1 = s1.rights.tolist()
    lefts2 = s2.lefts.tolist()
    rights2 = s2.rights.tolist()
    inside1 = s1.inside_count
    inside2 = s2.inside_count
    for a in range(s1.n_arcs):
        i1, j1 = lefts1[a], rights1[a]
        r1 = (int(inner1[a, 0]), int(inner1[a, 1]))
        row = values[i1 + 1]
        if sync_mode == "pair":
            # Chatty ablation: a collective per arc *pair*, so every
            # rank walks every column and synchronizes each time.
            for b in range(s2.n_arcs):
                if b in owned_set:
                    mark = measure_start()
                    i2, j2 = lefts2[b], rights2[b]
                    with span("tabulate_pair", "compute", row=i1 + 1):
                        row[i2 + 1] = tabulate(
                            values, s1, s2, i1 + 1, j1 - 1, i2 + 1, j2 - 1,
                            ranges=(
                                r1, (int(inner2[b, 0]), int(inner2[b, 1]))
                            ),
                            instrumentation=inst,
                        )
                    measure_stop(
                        mark,
                        work_model.pair_seconds(
                            int(inside1[a]), int(inside2[b])
                        )
                        if work_model is not None
                        else 0.0,
                    )
                with span("allreduce_wait", "comm", row=i1 + 1):
                    comm.Allreduce(row, ReduceOp.MAX)
            continue
        mark = measure_start()
        with span("tabulate_row", "compute", row=i1 + 1, columns=len(owned)):
            if batch is not None:
                row[owned_cols] = batch(
                    values, s1, s2, i1 + 1, j1 - 1, owned_arr,
                    r1=r1, instrumentation=inst,
                )
            else:
                for b in owned:
                    i2, j2 = lefts2[b], rights2[b]
                    row[i2 + 1] = tabulate(
                        values, s1, s2, i1 + 1, j1 - 1, i2 + 1, j2 - 1,
                        ranges=(r1, (int(inner2[b, 0]), int(inner2[b, 1]))),
                        instrumentation=inst,
                    )
        analytic = (
            work_model.row_seconds(int(inside1[a]), inside2, owned)
            if work_model is not None
            else 0.0
        )
        measure_stop(mark, analytic)
        if sync_mode == "row":
            with span("allreduce_wait", "comm", row=i1 + 1):
                comm.Allreduce(row, ReduceOp.MAX)
