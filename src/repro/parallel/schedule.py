"""Stage-one schedule abstraction: executors behind one interface.

PRNA's stage one admits more than one synchronization discipline over the
same recurrence.  This module defines the executor *interface* and the
paper's bulk-synchronous implementation; the dependency-driven dataflow
implementation lives in :mod:`repro.parallel.dataflow`.  An executor is a
module-level function

    ``executor(comm, s1, s2, state) -> Any``

that tabulates every rank-owned column of every outer ``S1`` arc into
``state.values`` and guarantees that, by stage two, rank 0 can read every
``(arc row, arc column)`` memo cell.  How the cells produced by *other*
ranks become visible — a collective per row or point-to-point cell
publication — is the executor's whole identity.

Keeping executors as module-level functions (rather than methods behind
dynamic dispatch) is deliberate: ``repro.check``'s protocol pass treats any
module-level function with a ``comm`` parameter as an SPMD entry point
and can inline direct calls, so each schedule's communication pattern is
machine-checked both standalone and as inlined into ``prna_rank``.

Analyzability note: the protocol interpreter's taint heuristic treats
anything assigned from an ``owned``-named value as rank-dependent, and
:class:`StageOneState` carries the owned partition — so ``state`` itself
is rank-tainted at the call site.  Executors therefore receive ``s1``
and ``s2`` as *separate, untainted* parameters and must
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

    Bundles everything beyond ``(comm, s1, s2)``: the arc-table buffer
    (row ``a`` is outer arc ``a``, column ``b`` is S2 arc ``b``), the owned
    column partition, the engine's row entry ``row`` (one call per
    outer arc over ``owned_arr``; see
    :data:`repro.core.slices.ROW_ENGINES`), and the observability hooks
    (``span`` yields tracer spans; ``charge`` feeds modelled compute
    seconds to the virtual clock).  Built once by
    :func:`repro.parallel.prna.prna_rank` and handed to whichever
    executor the sync mode selects.
    """

    values: np.ndarray
    partition: Any
    owned: list
    owned_arr: np.ndarray
    row: Callable
    inst: Any
    work_model: Any
    span: Callable
    charge: Callable[[float], None]


def row_barrier_stage_one(
    comm: Communicator,
    s1: Structure,
    s2: Structure,
    state: StageOneState,
) -> None:
    """The paper's bulk-synchronous stage one (Algorithm 4).

    For each outer arc by increasing right endpoint, tabulate the owned
    child slices, then synchronize the completed memo row with one
    ``Allreduce(MAX)``.
    """
    values = state.values
    tabulate_row = state.row
    inst = state.inst
    work_model = state.work_model
    span = state.span
    charge = state.charge
    owned = state.owned
    owned_arr = state.owned_arr
    inner1 = s1.inner_ranges
    lefts1 = s1.lefts.tolist()
    rights1 = s1.rights.tolist()
    inside1 = s1.inside_count
    inside2 = s2.inside_count
    for a in range(s1.n_arcs):
        i1, j1 = lefts1[a], rights1[a]
        r1 = (int(inner1[a, 0]), int(inner1[a, 1]))
        row = values[a]
        with span("tabulate_row", "compute", row=i1 + 1, columns=len(owned)):
            row[owned_arr] = tabulate_row(
                values, s1, s2, i1 + 1, j1 - 1, owned_arr,
                r1=r1, instrumentation=inst,
            )
        if work_model is not None:
            charge(work_model.row_seconds(int(inside1[a]), inside2, owned))
        with span("allreduce_wait", "comm", row=i1 + 1):
            comm.Allreduce(row, ReduceOp.MAX)
