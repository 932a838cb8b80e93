"""SRNA2 — the paper's two-stage algorithm (Algorithm 3).

SRNA2 removes SRNA1's per-cell memo probe and recursion by reorganizing the
computation so every memo read is *guaranteed* to hit:

* **preprocessing** — determine the arc right endpoints of both structures
  (already maintained by :class:`~repro.structure.arcs.Structure`) and the
  per-arc inner index ranges;
* **stage one** — for every pair of arcs ``(i1, j1) in S1`` (by increasing
  ``j1``) and ``(i2, j2) in S2`` (by increasing ``j2``), tabulate the child
  slice over ``(i1+1 .. j1-1) x (i2+1 .. j2-1)`` and memoize its last cell in
  ``M[i1+1][i2+1]``.  The increasing-right-endpoint order means any inner
  pair a slice depends on was tabulated in an earlier iteration, so
  ``M`` reads never miss;
* **stage two** — tabulate the parent slice over the full sequences, reading
  ``M`` where matched arcs occur; its last cell is the MCOS size.

``M`` is held arc-indexed (:class:`~repro.core.memo.ArcMemoTable`): the
cell ``M[i1+1][i2+1]`` of arc pair ``(a1, a2)`` is ``A[a1, a2]``, so stage
one writes one arc-table row per outer arc and the table takes
``|A1| x |A2|`` cells instead of ``n x m``.

:func:`run_stages` is the one sequential driver of both stages: SRNA2,
checkpointing, weighted scoring and manager-worker's single-rank world call
it.  :func:`parent_slice` is the one stage-two call.  PRNA
(:mod:`repro.parallel.prna`) keeps its own stage-one loops, which distribute
the inner loop across ranks and synchronize each ``M`` row.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.core.instrument import Instrumentation
from repro.core.memo import ArcMemoTable
from repro.core.slices import ENGINES, ROW_ENGINES
from repro.runtime.registry import validate_choice
from repro.structure.arcs import Structure

__all__ = ["srna2", "SRNA2Result"]


class SRNA2Result:
    """Outcome of an SRNA2 run: the MCOS size plus the memo table.

    Keeping the memo table allows backtracing
    (:mod:`repro.core.backtrace`) and lets PRNA's tests compare parallel and
    sequential tables cell by cell.
    """

    __slots__ = ("score", "memo", "instrumentation")

    def __init__(
        self,
        score: int,
        memo: ArcMemoTable,
        instrumentation: Instrumentation | None,
    ):
        self.score = score
        self.memo = memo
        self.instrumentation = instrumentation

    def __int__(self) -> int:
        return self.score

    def __repr__(self) -> str:
        return f"SRNA2Result(score={self.score})"


def srna2(
    s1: Structure,
    s2: Structure,
    *,
    engine: str = "batched",
    instrumentation: Instrumentation | None = None,
    dtype=None,
) -> SRNA2Result:
    """Run SRNA2 (Algorithm 3) on two structures.

    Parameters
    ----------
    engine:
        ``"batched"`` (production default — stage one advances all child
        slices of an outer arc together), ``"vectorized"`` (per-slice row
        kernels) or ``"python"`` (readable reference).  Stage one makes
        one :data:`~repro.core.slices.ROW_ENGINES` call per outer arc;
        stage two tabulates the parent slice with the engine's
        :data:`~repro.core.slices.ENGINES` kernel.  All engines produce
        bit-identical tables.
    instrumentation:
        Optional counters; stage times feed the Table III experiment.
    dtype:
        Memo/slice cell type (default ``numpy.int64``).  ``numpy.int32``
        halves the arc table and matches the paper's 4-byte cells; scores
        are bounded by ``min(|S1|, |S2|)``, so any integer type of at
        least 32 bits is safe for realistic inputs.
    """
    validate_choice("engine", engine)
    # Preprocessing: endpoint orders and inner ranges.  These are cached
    # properties of Structure, so touching them here both mirrors the
    # paper's preprocessing step and makes Table III's timing honest.
    with _stage(instrumentation, "preprocessing"):
        memo = ArcMemoTable(
            s1, s2, dtype=dtype if dtype is not None else np.int64
        )
        s1.inner_ranges  # cached here; the driver and row entries read them
        s2.inner_ranges
    score = run_stages(
        memo, s1, s2, ENGINES[engine], ROW_ENGINES[engine],
        instrumentation=instrumentation,
    )
    return SRNA2Result(int(score), memo, instrumentation)


def _stage(instrumentation: Instrumentation | None, name: str):
    return (
        instrumentation.stage(name)
        if instrumentation is not None
        else nullcontext()
    )


def parent_slice(
    memo_values: np.ndarray, s1: Structure, s2: Structure, tabulate, *,
    instrumentation: Instrumentation | None = None,
):
    """Stage two: the parent slice over the full sequences, whose ``d2``
    block is the whole arc table *memo_values*; its last cell is the
    score, which the caller stores as the table's ``score``."""
    return tabulate(
        memo_values, s1, s2, 0, s1.length - 1, 0, s2.length - 1,
        ranges=((0, s1.n_arcs), (0, s2.n_arcs)),
        instrumentation=instrumentation,
    )


def run_stages(
    memo: ArcMemoTable,
    s1: Structure,
    s2: Structure,
    tabulate,
    tabulate_row,
    *,
    instrumentation: Instrumentation | None = None,
    start_arc: int = 0,
    on_arc=None,
):
    """Stages one and two of Algorithm 3 into *memo*; returns the score.

    Stage one makes one *tabulate_row* call per S1 arc from *start_arc*
    on (by increasing right endpoint) over every S2 arc and writes that
    arc's row of the arc table whole; no slice under the arc reads its
    own row, since it reads only the rows of arcs inside it.  After each
    arc, ``on_arc(next_arc)`` runs; the rows of arcs before it are final.
    Stage two stores the parent slice's result as ``memo.score``.
    """
    arcs = memo.arcs
    with _stage(instrumentation, "stage_one"):
        inner1 = s1.inner_ranges.tolist()
        lefts1 = s1.lefts.tolist()
        rights1 = s1.rights.tolist()
        all_arcs2 = np.arange(s2.n_arcs, dtype=np.int64)
        for a in range(start_arc, s1.n_arcs):
            arcs[a] = tabulate_row(
                arcs, s1, s2, lefts1[a] + 1, rights1[a] - 1, all_arcs2,
                r1=tuple(inner1[a]), instrumentation=instrumentation,
            )
            if on_arc is not None:
                on_arc(a + 1)

    with _stage(instrumentation, "stage_two"):
        score = parent_slice(
            arcs, s1, s2, tabulate, instrumentation=instrumentation
        )
        memo.score = score
    return score
