"""Dependency-driven dataflow stage one: retire the row barrier.

The paper synchronizes the memo table with one ``Allreduce(MAX)`` per
outer arc — a bulk-synchronous protocol whose per-row rendezvous is the
measured bottleneck on latency-bound transports.  But the recurrence
itself is far less demanding: tabulating the owned columns of outer arc
``a`` only ever reads memo cells ``(row of d1, column of d2)`` at matched
arc pairs with ``d1`` strictly inner to ``a`` (right-endpoint order makes
the arc dependency matrix strictly lower-triangular, the same theorem
:func:`repro.analysis.depgraph.arc_dependency_pairs` encodes).  So a rank
can proceed the moment *its* dependencies arrive.

This executor derives, per rank pair, the exact column set the consumer's
owned slices read from the producer (from the two structures and the
deterministic partition — no negotiation traffic), then runs the arc loop
with point-to-point cell publication:

* after tabulating arc ``a``, the owner publishes the row segment each
  consumer reads via :meth:`~repro.mpi.communicator.Communicator.Publish`
  (non-blocking, coalesced: small publications ride together in one
  batch; a demand — an imminent reader, a threshold, or the producer
  itself blocking in ``Await`` — flushes);
* before tabulating arc ``a``, the rank satisfies its **wait-set**: for
  every producer peer it awaits the not-yet-installed dependency rows of
  ``a`` and installs the cells into its memo copy;
* no global barrier exists anywhere in stage one.  The only collective
  left in a dataflow PRNA run is the final score broadcast.

After the arc loop, ranks drain their outboxes and the distributed table
is consolidated at rank 0 (stage two's parent slice reads every
``(arc row, arc column)`` cell), making rank 0's memo bit-identical to
the row-barrier executor's — and hence to SRNA2's.

Deadlock freedom: dependencies point strictly backward in arc order and
every ``Await`` flushes the caller's own pending publications before
blocking, so the rank holding the globally smallest untabulated arc can
always make progress.

The publication order (right-endpoint, i.e. arc index order) is declared
in :mod:`repro.runtime.registry` and machine-checked by
``repro.check`` (SCHED001–003) against the actual dependency
structure; the runtime sanitizer independently validates every ``Publish``
against the declared schedule (see
:meth:`repro.check.sanitizer.SanitizedCommunicator.declare_publication_schedule`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mpi.communicator import Communicator
from repro.parallel.schedule import StageOneState
from repro.structure.arcs import Structure

__all__ = ["DataflowPlan", "build_dataflow_plan", "dataflow_stage_one"]

#: Publish urgently when the earliest reader of an arc is at most this
#: many outer iterations away — the consumer will demand the cells almost
#: immediately, so buffering them only adds latency.  Farther readers
#: leave the publication in the coalescing buffer.
_READER_LOOKAHEAD = 1


@dataclass(frozen=True)
class DataflowPlan:
    """The rank's derived communication plan — pure function of
    ``(s1, s2, partition, rank, size)``, so every rank computes a
    mutually consistent plan with zero negotiation messages."""

    #: Memo row of each ``S1`` arc (``lefts1 + 1``; rows are unique
    #: because arcs share no endpoints).
    row_of_arc: np.ndarray
    #: ``inner_ranges`` bounds: arc ``a`` depends on arcs
    #: ``dep_lo[a]:dep_hi[a]`` (all strictly ``< a``).
    dep_lo: np.ndarray
    dep_hi: np.ndarray
    #: Whether any later arc reads arc ``a``'s row (unread rows are
    #: never published).
    has_reader: np.ndarray
    #: Index of the first arc that reads arc ``a`` (``n_arcs`` if none) —
    #: the coalescing urgency hint.
    earliest_reader: np.ndarray
    #: consumer rank -> sorted memo columns of mine that its slices read.
    send_cols: dict
    #: producer rank -> sorted memo columns of its that my slices read.
    recv_cols: dict
    #: rank -> sorted memo columns that rank owns (consolidation blocks).
    col_blocks: dict

    @property
    def n_dependency_edges(self) -> int:
        """Total reader→dependency pairs (the planner's traffic proxy)."""
        return int(np.sum(self.dep_hi - self.dep_lo))


def build_dataflow_plan(
    s1: Structure, s2: Structure, partition, rank: int, size: int
) -> DataflowPlan:
    """Derive the publication/wait plan for *rank* deterministically."""
    n1 = s1.n_arcs
    rows = s1.lefts.astype(np.int64) + 1
    dep_lo = s1.inner_ranges[:, 0].astype(np.int64)
    dep_hi = s1.inner_ranges[:, 1].astype(np.int64)
    has_reader = np.zeros(n1, dtype=bool)
    earliest_reader = np.full(n1, n1, dtype=np.int64)
    for a in range(n1 - 1, -1, -1):
        lo, hi = int(dep_lo[a]), int(dep_hi[a])
        if lo < hi:
            has_reader[lo:hi] = True
            earliest_reader[lo:hi] = a  # descending sweep -> minimum wins
    cols2 = s2.lefts.astype(np.int64) + 1
    n2 = s2.n_arcs
    owner = np.zeros(n2, dtype=np.int64)
    col_blocks = {}
    for q in range(size):
        arcs_q = np.asarray(partition.tasks_of(q), dtype=np.int64)
        owner[arcs_q] = q
        col_blocks[q] = np.sort(cols2[arcs_q])
    # Read set per rank: the s2 arcs whose cells the rank's owned slices
    # consume as d2 (union of inner2 ranges over its owned arcs).
    inner2 = s2.inner_ranges
    read_mask = np.zeros((size, n2), dtype=bool)
    for q in range(size):
        for b in partition.tasks_of(q):
            lo, hi = int(inner2[b, 0]), int(inner2[b, 1])
            if lo < hi:
                read_mask[q, lo:hi] = True
    send_cols = {}
    recv_cols = {}
    for q in range(size):
        if q == rank:
            continue
        to_q = read_mask[q] & (owner == rank)
        if to_q.any():
            send_cols[q] = np.sort(cols2[np.flatnonzero(to_q)])
        from_q = read_mask[rank] & (owner == q)
        if from_q.any():
            recv_cols[q] = np.sort(cols2[np.flatnonzero(from_q)])
    return DataflowPlan(
        row_of_arc=rows,
        dep_lo=dep_lo,
        dep_hi=dep_hi,
        has_reader=has_reader,
        earliest_reader=earliest_reader,
        send_cols=send_cols,
        recv_cols=recv_cols,
        col_blocks=col_blocks,
    )


def dataflow_stage_one(
    comm: Communicator,
    s1: Structure,
    s2: Structure,
    state: StageOneState,
) -> DataflowPlan:
    """Dependency-driven stage one: publish cells, await wait-sets.

    Implements the executor interface of :mod:`repro.parallel.schedule`.
    Returns the :class:`DataflowPlan` so the caller can validate the
    consolidated table against each rank's owned block.
    """
    values = state.values
    tabulate_row = state.row
    inst = state.inst
    work_model = state.work_model
    span = state.span
    charge = state.charge
    owned = state.owned
    owned_arr = state.owned_arr
    owned_cols = state.owned_cols

    plan = build_dataflow_plan(s1, s2, state.partition, comm.rank, comm.size)
    declare = getattr(comm, "declare_publication_schedule", None)
    if declare is not None:
        # Sanitized run: hand the sanitizer the declared schedule so it
        # can validate every Publish against the dependency structure
        # (stray columns, publication-before-dependency) without any
        # cross-rank rendezvous of its own.
        declare(
            row_of_arc=plan.row_of_arc,
            dep_lo=plan.dep_lo,
            dep_hi=plan.dep_hi,
            expected_installs=len(plan.recv_cols),
        )

    inner1 = s1.inner_ranges
    lefts1 = s1.lefts.tolist()
    rights1 = s1.rights.tolist()
    inside1 = s1.inside_count
    inside2 = s2.inside_count
    rows = plan.row_of_arc
    installed = {p: set() for p in plan.recv_cols}
    for a in range(s1.n_arcs):
        i1, j1 = lefts1[a], rights1[a]
        r1 = (int(inner1[a, 0]), int(inner1[a, 1]))
        # Satisfy the wait-set: every dependency row of this arc must
        # hold the peer-owned cells before the owned columns tabulate.
        for p, cols in plan.recv_cols.items():
            seen = installed[p]
            missing = [d for d in range(r1[0], r1[1]) if d not in seen]
            if not missing:
                continue
            with span(
                "dependency_wait", "dep-wait",
                row=i1 + 1, peer=p, cells=len(missing) * len(cols),
            ):
                got = comm.Await([("row", d) for d in missing], p)
            for d in missing:
                values[rows[d], cols] = got[("row", d)]
                seen.add(d)
        row = values[i1 + 1]
        with span("tabulate_row", "compute", row=i1 + 1, columns=len(owned)):
            row[owned_cols] = tabulate_row(
                values, s1, s2, i1 + 1, j1 - 1, owned_arr,
                r1=r1, instrumentation=inst,
            )
        if work_model is not None:
            charge(work_model.row_seconds(int(inside1[a]), inside2, owned))
        # Publish the completed owned cells to every consumer, in arc
        # (right-endpoint) order — the SCHED-verified publication order.
        if plan.has_reader[a]:
            urgent = int(plan.earliest_reader[a]) - a <= _READER_LOOKAHEAD
            for q, cols in plan.send_cols.items():
                with span(
                    "publish", "publish", row=i1 + 1, peer=q, cells=len(cols)
                ):
                    comm.Publish(("row", a), row[cols], q, urgent=urgent)
    # Drain the outboxes, then consolidate the distributed table at
    # rank 0: stage two's parent slice reads every (arc row, arc column)
    # cell, so each peer ships its owned block once.  This replaces the
    # row barrier's implicit full replication with one message per rank.
    comm.flush_publications()
    all_rows = np.sort(rows)
    if comm.rank == 0:
        for q in range(1, comm.size):
            cols_q = plan.col_blocks[q]
            if len(cols_q) == 0:
                continue
            with span(
                "dependency_wait", "dep-wait",
                peer=q, cells=len(all_rows) * len(cols_q),
            ):
                got = comm.Await([("final", q)], q)
            values[np.ix_(all_rows, cols_q)] = got[("final", q)]
    else:
        mine = plan.col_blocks[comm.rank]
        if len(mine):
            block = values[np.ix_(all_rows, mine)]
            with span("publish", "publish", peer=0, cells=int(block.size)):
                comm.Publish(("final", comm.rank), block, 0, urgent=True)
        comm.flush_publications()
    return plan
