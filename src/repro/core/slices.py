"""Child-slice tabulation — the paper's ``TabulateSlice`` (Algorithm 2).

A *slice* is the two-dimensional piece of the conceptual 4-D table obtained
by fixing the interval start pair ``(i1, i2)``.  ``TabulateSlice`` fills it
bottom-up over the arcs contained in the intervals::

    for each arc (k1, x) in S1 with i1 <= k1 < x <= j1 (increasing x):
        for each arc (k2, y) in S2 with i2 <= k2 < y <= j2 (increasing y):
            slice[x][y] = MAX( slice[x-1][y], slice[x][y-1],
                               1 + slice[k1-1][k2-1] + M[k1+1][k2+1] )

and the value of the *last* tabulated subproblem is the slice's result.

Two key structural facts make the compressed, vectorized implementation
possible (both follow from the recurrence and are exercised by tests):

1. Slice values only change at rows/columns that are arc **right endpoints**
   inside the interval; between endpoints the value is a running maximum.
   A slice therefore compresses to one stored row per S1 endpoint and one
   stored column per S2 endpoint; reads at arbitrary positions resolve to
   the nearest endpoint at or below (binary search).
2. Within one row, every candidate's ``d1`` reference points at a strictly
   earlier row (``k1 < x``) and its ``d2`` reference points at the memo
   table, so an entire row vectorizes: elementwise max with the previous
   row, then a prefix maximum (``np.maximum.accumulate``) realizes the
   ``slice[x][y-1]`` case.

Compressed layout: the value matrix has one extra leading row *and* column
of zeros (the empty-interval boundary), so boundary reads need no masking —
a ``d1`` reference that falls before the interval simply lands on index 0.

Memo layout.  The paper keeps the child-slice results in an ``n x m``
table ``M`` (Theta(nm)); every engine here reads the arc-indexed table of
:class:`~repro.core.memo.ArcMemoTable` instead, ``A[a1, a2] = M[lefts1[a1]
+ 1, lefts2[a2] + 1]`` (Theta(|A1| |A2|)).  Arcs are ordered by right
endpoint, so the ``d2`` terms of the slice over arcs ``[lo1, hi1) x
[lo2, hi2)`` are the contiguous block ``A[lo1:hi1, lo2:hi2]`` — a view,
where the position table needed an ``np.ix_`` gather.

Every engine offers two entry points with a common contract:

* a **per-slice** kernel in :data:`ENGINES` — one slice per call, for stage
  two's parent slice, manager-worker tasks and the backtracer's
  re-tabulations.  :func:`tabulate_slice_python` is the direct
  transcription (the readable reference) and
  :func:`tabulate_slice_vectorized` reads its ``d2`` block once and runs
  four NumPy kernels per row; ``"batched"`` tabulates single slices with
  the vectorized kernel;
* a **row entry** in :data:`ROW_ENGINES` — all child slices of one outer
  S1 arc for a set of S2 arcs, the one call every stage-one loop makes per
  outer arc.  ``"python"`` and ``"vectorized"`` share
  :func:`tabulate_slices_each` (one per-slice call per S2 arc, so their
  per-slice profile is the paper's); ``"batched"`` is
  :func:`tabulate_slices_batched`.

The per-slice kernels accept precomputed arc-index *ranges* so stage one
avoids re-searching intervals (see :attr:`Structure.inner_ranges`), and can
return the full compressed slice (``keep_table=True``) for the backtracer.

Batched tabulation (:func:`tabulate_slices_batched`) exploits a third
structural fact: for a fixed S1 arc ``(i1, j1)``, *every* S2 child slice
shares the same row structure (``xs``, ``k1s``, and therefore the
``d1_rows`` gather indices).  The column sets of many S2 arcs are
concatenated into one wide value matrix — each slice contributing its own
zero-boundary column followed by its value columns — so an outer arc's
whole batch advances with **one** gather/add/max per row instead of one
per row per slice, and row ``r``'s memo terms are one ``np.take`` from the
contiguous arc-table row of its S1 arc.  The per-slice ``slice[x][y-1]``
case becomes a *segmented* prefix maximum: each segment is lifted by ``seg_id * stride``
(``stride`` exceeding any attainable slice value), one flat
``np.maximum.accumulate`` runs over the whole row, and the lift is
subtracted — earlier segments can never leak into later ones because their
lifted values are strictly smaller.  This is the grouping idea of the
Four-Russians RNA-folding line of work applied at slice granularity; see
``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.core.instrument import Instrumentation
from repro.errors import StructureError
from repro.structure.arcs import Structure

__all__ = [
    "SliceTable",
    "arc_range_in",
    "tabulate_slice_python",
    "tabulate_slice_vectorized",
    "scan_rows",
    "tabulate_slices_each",
    "tabulate_slices_batched",
    "ENGINES",
    "ROW_ENGINES",
]


@dataclass
class SliceTable:
    """A fully tabulated slice in compressed (endpoint-indexed) form.

    ``rows[r, c]`` is the slice value at S1 position ``xs[r-1]`` and S2
    position ``ys[c-1]``; row 0 and column 0 are the zero boundary.
    ``k1s``/``k2s`` are the matching left endpoints of each row/column arc.
    """

    i1: int
    j1: int
    i2: int
    j2: int
    xs: np.ndarray  # S1 arc right endpoints in the interval (sorted)
    k1s: np.ndarray  # matching left endpoints
    ys: np.ndarray  # S2 arc right endpoints in the interval (sorted)
    k2s: np.ndarray  # matching left endpoints
    rows: np.ndarray  # (len(xs) + 1, len(ys) + 1) values; row/col 0 boundary

    @property
    def result(self) -> int:
        """Value of the last tabulated subproblem (the slice's memo value)."""
        if len(self.xs) == 0 or len(self.ys) == 0:
            return 0
        return int(self.rows[-1, -1])

    def value_at(self, p1: int, p2: int) -> int:
        """Slice value at arbitrary positions ``(p1, p2)`` of the intervals.

        Resolves to the nearest tabulated endpoint at or below each
        coordinate; positions before the first endpoints read the zero
        boundary.
        """
        r = int(np.searchsorted(self.xs, p1, side="right"))
        c = int(np.searchsorted(self.ys, p2, side="right"))
        return int(self.rows[r, c])

    def values_at(self, p1s, p2s) -> np.ndarray:
        """Vectorized :meth:`value_at`: slice values at position arrays.

        ``p1s``/``p2s`` may be any broadcast-compatible shapes (e.g. a
        column vector against a row vector reads a whole grid in one
        call); the result has the broadcast shape.
        """
        r = np.searchsorted(self.xs, np.asarray(p1s), side="right")
        c = np.searchsorted(self.ys, np.asarray(p2s), side="right")
        return self.rows[r, c]


def arc_range_in(structure: Structure, i: int, j: int) -> tuple[int, int]:
    """Index range ``[lo, hi)`` of arcs fully inside ``[i, j]``.

    **Precondition**: no arc straddles the interval boundary.  This holds
    for every interval the paper's algorithms tabulate — the interval under
    an arc (a straddler would cross the spawning arc, which the
    non-pseudoknot model forbids) and the full sequence.  For arbitrary
    intervals the inside arcs need not even be contiguous in right-endpoint
    order; use :meth:`Structure.arc_indices_in` there instead.  A violated
    precondition raises :class:`StructureError` rather than silently
    including straddlers.
    """
    if j < i:
        return (0, 0)
    rights = structure.rights
    lo = int(np.searchsorted(rights, i, side="left"))
    hi = int(np.searchsorted(rights, j, side="right"))
    if lo < hi and not (structure.lefts[lo:hi] >= i).all():
        raise StructureError(
            f"interval [{i}, {j}] is straddled by an arc; arc_range_in "
            "requires non-straddled intervals (use arc_indices_in instead)"
        )
    return (lo, hi)


def _slice_arrays(
    s1: Structure,
    s2: Structure,
    r1: tuple[int, int],
    r2: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    lo1, hi1 = r1
    lo2, hi2 = r2
    return (
        s1.rights[lo1:hi1],
        s1.lefts[lo1:hi1],
        s2.rights[lo2:hi2],
        s2.lefts[lo2:hi2],
    )


# ----------------------------------------------------------------------
# Reference engine: direct transcription of Algorithm 2
# ----------------------------------------------------------------------
def tabulate_slice_python(
    memo_values: np.ndarray,
    s1: Structure,
    s2: Structure,
    i1: int,
    j1: int,
    i2: int,
    j2: int,
    *,
    ranges: tuple[tuple[int, int], tuple[int, int]] | None = None,
    instrumentation: Instrumentation | None = None,
    keep_table: bool = False,
) -> int | SliceTable:
    """Pure-Python ``TabulateSlice`` over intervals ``[i1,j1] x [i2,j2]``.

    ``memo_values`` is the arc table ``A`` (:class:`ArcMemoTable.arcs
    <repro.core.memo.ArcMemoTable>`); its reads ``A[a1, a2]`` for the arcs
    inside the intervals must already hold final values (SRNA2's ordering
    guarantee).  Returns the slice result, or the full
    :class:`SliceTable` when ``keep_table``.
    """
    if ranges is None:
        ranges = (arc_range_in(s1, i1, j1), arc_range_in(s2, i2, j2))
    xs, k1s, ys, k2s = _slice_arrays(s1, s2, *ranges)
    (lo1, _), (lo2, _) = ranges
    n_rows, n_cols = len(xs), len(ys)
    rows = np.zeros((n_rows + 1, n_cols + 1), dtype=memo_values.dtype)
    # The d1 reference indices depend only on the arc endpoints, not on the
    # values being tabulated, so both are hoisted out of the cell loop
    # (exactly as the vectorized engine precomputes them).
    d1_rows = np.searchsorted(xs, k1s - 1, side="right").tolist()
    d1_cols = np.searchsorted(ys, k2s - 1, side="right").tolist()
    for r in range(1, n_rows + 1):
        # Stored row (0 = boundary) holding the value at S1 position k1 - 1.
        d1_row = d1_rows[r - 1]
        prev = rows[r - 1]
        cur = rows[r]
        running = 0
        for c in range(1, n_cols + 1):
            d1 = int(rows[d1_row, d1_cols[c - 1]])
            d2 = int(memo_values[lo1 + r - 1, lo2 + c - 1])
            best = max(int(prev[c]), running, 1 + d1 + d2)
            cur[c] = best
            running = best
    if instrumentation is not None:
        instrumentation.count_slice(n_rows * n_cols)
    table = SliceTable(i1, j1, i2, j2, xs, k1s, ys, k2s, rows)
    return table if keep_table else table.result


# ----------------------------------------------------------------------
# Production engine: vectorized row kernels
# ----------------------------------------------------------------------
def tabulate_slice_vectorized(
    memo_values: np.ndarray,
    s1: Structure,
    s2: Structure,
    i1: int,
    j1: int,
    i2: int,
    j2: int,
    *,
    ranges: tuple[tuple[int, int], tuple[int, int]] | None = None,
    instrumentation: Instrumentation | None = None,
    keep_table: bool = False,
) -> int | SliceTable:
    """Vectorized ``TabulateSlice``; same contract as the reference engine.

    The ``1 + A[a1, a2]`` terms of the whole slice are one arithmetic pass
    over the block ``A[lo1:hi1, lo2:hi2]``; after that, each row costs
    four NumPy kernels (:func:`scan_rows`).
    """
    if ranges is None:
        ranges = (arc_range_in(s1, i1, j1), arc_range_in(s2, i2, j2))
    xs, k1s, ys, k2s = _slice_arrays(s1, s2, *ranges)
    (lo1, hi1), (lo2, hi2) = ranges
    rows = scan_rows(memo_values[lo1:hi1, lo2:hi2] + 1, xs, k1s, ys, k2s)
    if instrumentation is not None:
        instrumentation.count_slice(len(xs) * len(ys))
    table = SliceTable(i1, j1, i2, j2, xs, k1s, ys, k2s, rows)
    return table if keep_table else table.result


def scan_rows(
    terms: np.ndarray,
    xs: np.ndarray,
    k1s: np.ndarray,
    ys: np.ndarray,
    k2s: np.ndarray,
) -> np.ndarray:
    """The compressed slice over S1 arcs ``(k1s, xs)`` x S2 arcs ``(k2s, ys)``.

    ``terms[r, c]`` is what a match of row arc ``r`` with column arc ``c``
    adds to its ``d1`` read: ``1 + d2`` for MCOS, ``W + d2`` for weighted
    scoring.  Returns the ``(len(xs) + 1, len(ys) + 1)`` value matrix;
    each row costs four NumPy kernels — gather ``d1`` from an earlier
    row, add the terms, max against the previous row, prefix-maximize.
    """
    n_rows, n_cols = len(xs), len(ys)
    rows = np.zeros((n_rows + 1, n_cols + 1), dtype=terms.dtype)
    if n_rows == 0 or n_cols == 0:
        return rows
    # Row-invariant precomputation.  Column c (1-based) reads its d1 value
    # at the stored column for S2 position k2s[c-1] - 1; index 0 is the zero
    # boundary, so no masking is needed.
    d1_cols = np.searchsorted(ys, k2s - 1, side="right")
    d1_rows = np.searchsorted(xs, k1s - 1, side="right")
    cand = np.empty(n_cols, dtype=terms.dtype)
    for r in range(1, n_rows + 1):
        rows[d1_rows[r - 1]].take(d1_cols, out=cand)
        cand += terms[r - 1]
        out = rows[r, 1:]
        np.maximum(rows[r - 1, 1:], cand, out=out)
        np.maximum.accumulate(out, out=out)
    return rows


def tabulate_slices_each(
    memo_values: np.ndarray,
    s1: Structure,
    s2: Structure,
    i1: int,
    j1: int,
    arcs2,
    *,
    r1: tuple[int, int] | None = None,
    instrumentation: Instrumentation | None = None,
    tabulate,
) -> np.ndarray:
    """Row entry of the per-slice engines: one *tabulate* call per S2 arc.

    Same contract as :func:`tabulate_slices_batched` — the child slices of
    S1 interval ``[i1, j1]`` under each S2 arc in ``arcs2``, results
    aligned with ``arcs2`` — with every slice counted on its own, so the
    per-slice profile (Table III) is the paper's.
    """
    if r1 is None:
        r1 = arc_range_in(s1, i1, j1)
    arcs2 = np.asarray(arcs2, dtype=np.int64)
    lefts2 = s2.lefts[arcs2].tolist()
    rights2 = s2.rights[arcs2].tolist()
    inner2 = s2.inner_ranges[arcs2].tolist()
    results = np.zeros(len(arcs2), dtype=memo_values.dtype)
    for k, (lo2, hi2) in enumerate(inner2):
        results[k] = tabulate(
            memo_values, s1, s2, i1, j1, lefts2[k] + 1, rights2[k] - 1,
            ranges=(r1, (lo2, hi2)), instrumentation=instrumentation,
        )
    return results


# ----------------------------------------------------------------------
# Batched engine: all child slices of one outer arc advance together
# ----------------------------------------------------------------------

#: Sentinel added to boundary columns' memo terms so a boundary candidate
#: can never win the row maximum (boundary cells must stay 0).  Far from
#: the int64 limits, so adding a slice value never overflows.
_BOUNDARY_NEG = -(1 << 62)

#: Cap on the cells of one batch's wide value matrix (``n_rows * width``);
#: larger batches are split into column chunks so Table 1-scale worst
#: cases do not allocate multi-gigabyte temporaries.
_MAX_BATCH_ELEMENTS = 1 << 24


def _ragged_arange(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], starts[i] + lens[i])``."""
    total = int(lens.sum())
    firsts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    return np.arange(total, dtype=np.int64) + np.repeat(starts - firsts, lens)


def _segmented_tabulate(
    d2_rows: np.ndarray,
    xs: np.ndarray,
    k1s: np.ndarray,
    los: np.ndarray,
    his: np.ndarray,
    s2: Structure,
) -> np.ndarray | None:
    """Tabulate every (non-empty) slice of one batch in a shared wide matrix.

    ``d2_rows`` holds the arc-table rows of the batch's S1 arcs (row
    ``r - 1`` holds row ``r``'s ``d2`` terms, one column per S2 arc);
    ``los``/``his`` are per-slice arc-index ranges into ``s2`` (all with
    ``his > los``); the S1 side (``xs``/``k1s``) is shared by the whole
    batch.  Returns the slice results, or ``None`` when the segmented
    prefix-max lift cannot be applied safely (non-integer memo dtype or
    offset overflow risk), in which case the caller falls back to
    per-slice tabulation.
    """
    if d2_rows.dtype.kind not in "iu":
        return None
    n_rows = len(xs)
    lens = (his - los).astype(np.int64)
    n_seg = len(lens)
    total = int(lens.sum())
    width = n_seg + total

    # Wide layout: segment s occupies [bases[s], bases[s] + lens[s]]; the
    # first position is its private zero-boundary column (row 0 plays the
    # boundary role on the other axis, exactly as in the per-slice engines).
    firsts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    bases = np.arange(n_seg, dtype=np.int64) + firsts
    val_pos = np.repeat(bases + 1, lens) + (
        np.arange(total, dtype=np.int64) - np.repeat(firsts, lens)
    )

    col_idx = _ragged_arange(los.astype(np.int64), lens)
    k2s_cat = s2.lefts[col_idx]

    # d1 column lookup, one global searchsorted for the whole batch:
    # segments are contiguous runs of the globally sorted s2.rights, so the
    # global insertion point clipped to the segment's range *is* the local
    # one (0 = the segment's boundary column).
    g = np.searchsorted(s2.rights, k2s_cat - 1, side="right")
    los_rep = np.repeat(los, lens)
    local = np.clip(g, los_rep, np.repeat(his, lens)) - los_rep
    g_d1_cols = np.empty(width, dtype=np.int64)
    g_d1_cols[bases] = bases  # boundary reads its own (always-zero) column
    g_d1_cols[val_pos] = np.repeat(bases, lens) + local

    # Shared row structure: identical for every slice in the batch.
    d1_rows = np.searchsorted(xs, k1s - 1, side="right")

    # d2 terms: row r takes its value columns from the arc-table row of
    # its S1 arc, restricted to the batch's column span, plus 1; boundary
    # columns take a sentinel slot past the span so a boundary candidate
    # never wins the row maximum (boundary cells must stay 0).  The span
    # block (n_rows x |A2| at most) is far narrower than the wide matrix.
    c_lo, c_hi = int(los.min()), int(his.max())
    span = c_hi - c_lo
    ext = np.empty((n_rows, span + 1), dtype=np.int64)
    np.add(d2_rows[:, c_lo:c_hi], 1, out=ext[:, :span])
    vmax = int(ext[:, :span].max())
    ext[:, span] = _BOUNDARY_NEG
    d2_cols = np.full(width, span, dtype=np.int64)
    d2_cols[val_pos] = col_idx - c_lo

    # Segmented prefix-max lift: stride must exceed any attainable slice
    # value (<= n_rows gains of at most vmax each) and the total lift must
    # stay far from the int64 limit.
    stride = max(vmax, 1) * n_rows + 1
    if stride * n_seg >= (1 << 62):
        return None
    seg_lift = np.arange(n_seg, dtype=np.int64) * stride
    seg_off = np.repeat(seg_lift, lens + 1)

    # The whole tabulation runs in *lifted* space: row 0 starts at the
    # per-segment offsets and every stored value carries its segment's
    # lift.  This is self-consistent because no recurrence case crosses a
    # segment: a d1 read lands in its own segment (same lift on both sides
    # of the addition), the previous-row max compares equal lifts, and the
    # flat prefix max cannot leak a segment's values into the next one —
    # its lifted values are strictly below the next boundary's offset.
    # Working lifted saves two full-width kernels per row versus lifting
    # and unlifting around each accumulate.
    rows_wide = np.empty((n_rows + 1, width), dtype=np.int64)
    rows_wide[0] = seg_off
    cand = np.empty(width, dtype=np.int64)
    d2p1 = np.empty(width, dtype=np.int64)
    # ndarray.take, not np.take: small batches are bound by per-call cost.
    for r in range(1, n_rows + 1):
        ext[r - 1].take(d2_cols, out=d2p1)
        rows_wide[d1_rows[r - 1]].take(g_d1_cols, out=cand)
        cand += d2p1
        out = rows_wide[r]
        np.maximum(rows_wide[r - 1], cand, out=out)
        np.maximum.accumulate(out, out=out)

    return rows_wide[n_rows, bases + lens] - seg_lift


def tabulate_slices_batched(
    memo_values: np.ndarray,
    s1: Structure,
    s2: Structure,
    i1: int,
    j1: int,
    arcs2,
    *,
    r1: tuple[int, int] | None = None,
    instrumentation: Instrumentation | None = None,
) -> np.ndarray:
    """Tabulate the child slices of S1 interval ``[i1, j1]`` for many S2 arcs.

    ``arcs2`` holds S2 arc indices; slice ``k`` of the batch covers
    ``(lefts2[arcs2[k]] + 1 .. rights2[arcs2[k]] - 1)`` on the S2 side.
    Returns the per-slice results aligned with ``arcs2`` — exactly what
    SRNA2's stage one writes into the arc-table row of the outer arc (and
    what a PRNA rank writes for its owned columns).

    ``memo_values`` is the arc table, whose rows ``lo1:hi1`` hold every
    ``d2`` term of the batch.  An expanded ``(max(n, 1), max(m, 1))``
    position table is accepted too (its row block is gathered once with
    ``np.ix_``); the shapes never coincide, because ``n >= 2 |A1|``.

    Batches whose wide value matrix would exceed the element cap are split
    into column chunks; batches the segmented kernel cannot handle
    (non-integer memo dtype, offset overflow) fall back to per-slice
    :func:`scan_rows`.  Either way results are bit-identical to the
    per-slice engines.
    """
    if r1 is None:
        r1 = arc_range_in(s1, i1, j1)
    lo1, hi1 = r1
    xs = s1.rights[lo1:hi1]
    k1s = s1.lefts[lo1:hi1]
    n_rows = len(xs)
    arcs2 = np.asarray(arcs2, dtype=np.int64)
    results = np.zeros(len(arcs2), dtype=memo_values.dtype)
    if n_rows == 0 or len(arcs2) == 0:
        if instrumentation is not None:
            instrumentation.count_batch(len(arcs2), 0)
        return results

    inner2 = s2.inner_ranges
    los = inner2[arcs2, 0].astype(np.int64)
    his = inner2[arcs2, 1].astype(np.int64)
    nonempty = np.flatnonzero(his > los)
    total_cells = n_rows * int((his - los)[nonempty].sum())
    if instrumentation is not None:
        instrumentation.count_batch(len(arcs2), total_cells)
    if nonempty.size == 0:
        return results
    if memo_values.shape == (s1.n_arcs, s2.n_arcs):
        d2_rows = memo_values[lo1:hi1]
    else:
        d2_rows = memo_values[np.ix_(k1s + 1, s2.lefts + 1)]

    # Chunk so one wide matrix holds at most _MAX_BATCH_ELEMENTS cells.
    max_width = max(_MAX_BATCH_ELEMENTS // max(n_rows, 1), 2)
    widths = (his - los)[nonempty] + 1
    chunk_marks = np.cumsum(widths) // max_width
    start = 0
    while start < nonempty.size:
        stop = int(
            np.searchsorted(chunk_marks, chunk_marks[start], side="right")
        )
        stop = max(stop, start + 1)
        part = nonempty[start:stop]
        batch = _segmented_tabulate(
            d2_rows, xs, k1s, los[part], his[part], s2
        )
        if batch is None:
            batch = [
                scan_rows(
                    d2_rows[:, lo2:hi2] + 1, xs, k1s,
                    s2.rights[lo2:hi2], s2.lefts[lo2:hi2],
                )[-1, -1]
                for lo2, hi2 in zip(los[part].tolist(), his[part].tolist())
            ]
        results[part] = batch
        start = stop
    return results


#: Per-slice kernels (stage two, manager-worker tasks, the backtracer).
#: ``"batched"`` tabulates single slices with the vectorized kernel; its
#: batching lives in the row entry.
ENGINES = {
    "python": tabulate_slice_python,
    "vectorized": tabulate_slice_vectorized,
    "batched": tabulate_slice_vectorized,
}

#: Row entries: the one call per outer arc every stage-one loop makes
#: (SRNA2, PRNA's owned columns, checkpointing, manager-worker's
#: single-rank path).  ``"batched"`` is the production default;
#: ``"vectorized"`` and ``"python"`` are kept as cross-check references.
ROW_ENGINES: dict[str, Callable[..., np.ndarray]] = {
    "python": partial(tabulate_slices_each, tabulate=tabulate_slice_python),
    "vectorized": partial(
        tabulate_slices_each, tabulate=tabulate_slice_vectorized
    ),
    "batched": tabulate_slices_batched,
}
