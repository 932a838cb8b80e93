"""Recovering an optimal common substructure from SRNA2's tables.

The paper's space reduction keeps only the final value of each child slice,
which (as Section IV-A notes) forfeits the details of *how* each slice's
optimum was reached "unless we are interested in backtracing the subproblem
that spawned the child slice".  This module supplies that backtrace without
giving up the arc-indexed Theta(|A1| |A2|) table
(:class:`~repro.core.memo.ArcMemoTable`): slices are **re-tabulated on
demand** during the walk, one at a time, each discarded before the next is
opened.  SRNA1's position-space table is converted once, with
:meth:`ArcMemoTable.from_positions`.

The result is the list of matched arc pairs — a certificate that can be (and
in tests, is) independently verified to be a valid common ordered
substructure of the claimed size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.memo import ArcMemoTable, DenseMemoTable
from repro.core.slices import (
    SliceTable,
    arc_range_in,
    scan_rows,
    tabulate_slice_vectorized,
)
from repro.errors import BacktraceError
from repro.structure.arcs import Arc, Structure

__all__ = [
    "MatchedPair",
    "backtrace",
    "backtrace_weighted",
    "verify_matching",
]


@dataclass(frozen=True)
class MatchedPair:
    """One matched arc pair in the common substructure."""

    arc1: Arc
    arc2: Arc


def _close(a: float, b: float) -> bool:
    """Value equality that tolerates float accumulation in weighted runs."""
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _trace_slice(
    memo: ArcMemoTable,
    s1: Structure,
    s2: Structure,
    i1: int,
    j1: int,
    i2: int,
    j2: int,
    out: list[MatchedPair],
    weights: np.ndarray | None = None,
) -> None:
    """Re-tabulate one slice and walk it backwards, recursing into the child
    slice of every matched pair on the optimal path."""
    (lo1, hi1), (lo2, hi2) = ranges = (
        arc_range_in(s1, i1, j1), arc_range_in(s2, i2, j2)
    )
    arcs = memo.arcs
    if weights is None:
        table: SliceTable = tabulate_slice_vectorized(
            arcs, s1, s2, i1, j1, i2, j2, ranges=ranges, keep_table=True
        )
    else:
        xs, k1s = s1.rights[lo1:hi1], s1.lefts[lo1:hi1]
        ys, k2s = s2.rights[lo2:hi2], s2.lefts[lo2:hi2]
        rows = scan_rows(
            weights[lo1:hi1, lo2:hi2] + arcs[lo1:hi1, lo2:hi2],
            xs, k1s, ys, k2s,
        )
        table = SliceTable(i1, j1, i2, j2, xs, k1s, ys, k2s, rows)
    rows = table.rows
    n_rows = len(table.xs)
    n_cols = len(table.ys)
    if n_rows == 0 or n_cols == 0:
        return
    # d1 references depend only on the arc endpoints, so both the stored
    # indices and the value grid are hoisted out of the walk: one
    # vectorized searchsorted per axis, one broadcast values_at read.
    d1_rows = np.searchsorted(table.xs, table.k1s - 1, side="right")
    d1_cols = np.searchsorted(table.ys, table.k2s - 1, side="right")
    d1_grid = table.values_at(
        table.k1s[:, None] - 1, table.k2s[None, :] - 1
    )
    # Stack of cells still to be explained within this slice.  Cells are
    # (stored row, stored column) indices; index 0 on either axis is the
    # zero boundary.
    stack: list[tuple[int, int]] = [(n_rows, n_cols)]
    while stack:
        r, c = stack.pop()
        value = rows[r, c]
        if _close(value, 0.0) or r == 0 or c == 0:
            continue
        # s1 case: same value one endpoint row up.
        if _close(rows[r - 1, c], value):
            stack.append((r - 1, c))
            continue
        # s2 case: same value one endpoint column left.
        if _close(rows[r, c - 1], value):
            stack.append((r, c - 1))
            continue
        # Must be a match at this cell: arcs a1 = (k1, x) and a2 = (k2, y).
        a1, a2 = lo1 + r - 1, lo2 + c - 1
        k1 = int(table.k1s[r - 1])
        x = int(table.xs[r - 1])
        k2 = int(table.k2s[c - 1])
        y = int(table.ys[c - 1])
        d1_row = int(d1_rows[r - 1])
        d1_col = int(d1_cols[c - 1])
        d1 = d1_grid[r - 1, c - 1]
        d2 = arcs[a1, a2]
        bonus = 1 if weights is None else weights[a1, a2]
        if not _close(value, bonus + d1 + d2):
            raise BacktraceError(
                f"cell ({r}, {c}) of slice ({i1},{j1})x({i2},{j2}) holds "
                f"{value}, but no recurrence case attains it "
                f"(s1/s2 fail, match gives {bonus + d1 + d2})"
            )
        out.append(MatchedPair(Arc(k1, x), Arc(k2, y)))
        if not _close(d2, 0.0):
            _trace_slice(
                memo, s1, s2, k1 + 1, x - 1, k2 + 1, y - 1, out, weights
            )
        if not _close(d1, 0.0):
            stack.append((d1_row, d1_col))
    return


def backtrace(
    memo: ArcMemoTable | DenseMemoTable, s1: Structure, s2: Structure
) -> list[MatchedPair]:
    """Matched arc pairs of an optimal common substructure.

    *memo* must be the table produced by a completed SRNA1/SRNA2/PRNA
    run on ``(s1, s2)``; SRNA1's position table is converted once with
    :meth:`ArcMemoTable.from_positions`.  Pairs are returned in no
    particular order; their count equals the MCOS size ``memo.score``.
    """
    if not isinstance(memo, ArcMemoTable):
        memo = ArcMemoTable.from_positions(memo.values, s1, s2)
    out: list[MatchedPair] = []
    _trace_slice(memo, s1, s2, 0, s1.length - 1, 0, s2.length - 1, out)
    expected = int(memo.score)
    if len(out) != expected:
        raise BacktraceError(
            f"backtrace found {len(out)} matched pairs but the table "
            f"reports an optimum of {expected}"
        )
    return out


def backtrace_weighted(
    memo: ArcMemoTable,
    s1: Structure,
    s2: Structure,
    weights: np.ndarray,
) -> list[MatchedPair]:
    """Matched arc pairs of a maximum-*weight* common substructure.

    *memo* must come from a completed :func:`repro.core.weighted
    .weighted_mcos` run with the same *weights*.  The returned pairs' total
    weight equals the stored optimum (pairs whose subtrees cancel to zero
    weight may be omitted — the certificate is weight-optimal either way).
    """
    weights = np.asarray(weights, dtype=np.float64)
    out: list[MatchedPair] = []
    _trace_slice(
        memo, s1, s2, 0, s1.length - 1, 0, s2.length - 1, out, weights
    )
    expected = float(memo.score)
    arc_index1 = {arc: k for k, arc in enumerate(s1.arcs)}
    arc_index2 = {arc: k for k, arc in enumerate(s2.arcs)}
    total = sum(
        float(weights[arc_index1[pair.arc1], arc_index2[pair.arc2]])
        for pair in out
    )
    if not _close(total, expected):
        raise BacktraceError(
            f"weighted backtrace recovered total weight {total} but the "
            f"table reports an optimum of {expected}"
        )
    return out


def verify_matching(
    s1: Structure, s2: Structure, pairs: list[MatchedPair]
) -> bool:
    """Check that *pairs* forms a valid common ordered substructure.

    Requirements (Section III-A): the matched arcs of each side are distinct,
    belong to their structures, and the pairing preserves the relative
    arrangement — for any two pairs, the two ``S1`` arcs relate (nested /
    sequential, in the same orientation) exactly as the two ``S2`` arcs do.

    Raises :class:`BacktraceError` describing the first violation; returns
    ``True`` otherwise.
    """
    arcset1 = set(s1.arcs)
    arcset2 = set(s2.arcs)
    seen1: set[Arc] = set()
    seen2: set[Arc] = set()
    for pair in pairs:
        if pair.arc1 not in arcset1:
            raise BacktraceError(f"{pair.arc1} is not an arc of S1")
        if pair.arc2 not in arcset2:
            raise BacktraceError(f"{pair.arc2} is not an arc of S2")
        if pair.arc1 in seen1:
            raise BacktraceError(f"{pair.arc1} matched twice")
        if pair.arc2 in seen2:
            raise BacktraceError(f"{pair.arc2} matched twice")
        seen1.add(pair.arc1)
        seen2.add(pair.arc2)

    def relation(a: Arc, b: Arc) -> str:
        if a.right < b.left:
            return "before"
        if b.right < a.left:
            return "after"
        if a.left < b.left and b.right < a.right:
            return "around"
        if b.left < a.left and a.right < b.right:
            return "inside"
        return "crossing"

    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            rel1 = relation(pairs[i].arc1, pairs[j].arc1)
            rel2 = relation(pairs[i].arc2, pairs[j].arc2)
            if rel1 != rel2:
                raise BacktraceError(
                    f"pairs {i} and {j} disagree: S1 arcs are {rel1}, "
                    f"S2 arcs are {rel2}"
                )
    return True
