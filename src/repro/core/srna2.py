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

This module is also the template for the parallel algorithm: PRNA
(:mod:`repro.parallel.prna`) distributes stage one's inner loop across ranks
and synchronizes each ``M`` row after the corresponding outer iteration.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.core.instrument import Instrumentation
from repro.core.memo import DenseMemoTable
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
        memo: DenseMemoTable,
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
        halves the footprint and matches the paper's 4-byte cells; scores
        are bounded by ``min(|S1|, |S2|)``, so any integer type of at
        least 32 bits is safe for realistic inputs.
    """
    validate_choice("engine", engine)
    tabulate, tabulate_row = ENGINES[engine], ROW_ENGINES[engine]
    n, m = s1.length, s2.length

    def stage(name: str):
        return (
            instrumentation.stage(name)
            if instrumentation is not None
            else nullcontext()
        )

    # Preprocessing: endpoint orders and inner ranges.  These are cached
    # properties of Structure, so touching them here both mirrors the
    # paper's preprocessing step and makes Table III's timing honest.
    with stage("preprocessing"):
        memo = DenseMemoTable(n, m, dtype=dtype if dtype is not None else np.int64)
        inner1 = s1.inner_ranges
        s2.inner_ranges  # cached here; the row entries read it
        lefts1 = s1.lefts.tolist()
        rights1 = s1.rights.tolist()
        n_arcs1, n_arcs2 = s1.n_arcs, s2.n_arcs

    # Stage one: tabulate every child slice, outer loop by increasing j1,
    # one row-entry call per outer arc over every S2 arc (the arcs are
    # stored in increasing-j2 order).  Writing the whole row at once is
    # sound because no slice under (i1, j1) ever reads memo row i1 + 1
    # (shared endpoints are forbidden, so every d2 reference lands on a
    # row of a smaller right endpoint).
    with stage("stage_one"):
        values = memo.values
        all_arcs2 = np.arange(n_arcs2, dtype=np.int64)
        row_cols = s2.lefts + 1
        for a in range(n_arcs1):
            i1, j1 = lefts1[a], rights1[a]
            r1 = (int(inner1[a, 0]), int(inner1[a, 1]))
            values[i1 + 1, row_cols] = tabulate_row(
                values, s1, s2, i1 + 1, j1 - 1, all_arcs2,
                r1=r1, instrumentation=instrumentation,
            )

    # Stage two: the parent slice over the full sequences.
    with stage("stage_two"):
        score = int(
            tabulate(
                memo.values, s1, s2, 0, n - 1, 0, m - 1,
                ranges=((0, n_arcs1), (0, n_arcs2)),
                instrumentation=instrumentation,
            )
        )
        memo.store(0, 0, score)

    return SRNA2Result(score, memo, instrumentation)
