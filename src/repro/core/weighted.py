"""Weighted common-substructure scoring (the Bafna-style generalization).

The recurrence generalizes paper Figure 2 by replacing the ``1 +`` of the
matched-arc case with an arc-pair weight::

    F[i1,j1,i2,j2] = max( F[i1,j1-1,i2,j2],
                          F[i1,j1,i2,j2-1],
                          W[a1,a2] + d1 + d2 )      # when arcs match

where ``W`` is any real-valued weight matrix (see
:mod:`repro.core.weights`).  With ``W == 1`` this is exactly the MCOS
recurrence, a degeneration the tests exploit; negative weights are legal —
the static cases always offer the skip option, so the optimum is the
maximum-weight common ordered substructure under the same order/nesting
constraints.

Everything that makes SRNA2 work carries over unchanged: slice values
remain monotone under the staircase maxima (candidates only ever *join* a
running max), the child-slice identity is still the origin pair, and stage
one's increasing-right-endpoint order still guarantees memo hits.  The
implementation below is a weighted twin of
:func:`repro.core.slices.tabulate_slice_vectorized` (the same
:func:`~repro.core.slices.scan_rows` over ``W + d2`` terms), which
:func:`weighted_mcos` hands to SRNA2's stage driver
(:func:`repro.core.srna2.run_stages`) with a float64 arc table, plus a
dense 4-D reference used by the tests.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.memo import ArcMemoTable
from repro.core.slices import scan_rows, tabulate_slices_each
from repro.core.srna2 import run_stages
from repro.errors import StructureError
from repro.structure.arcs import Structure

__all__ = ["weighted_mcos", "weighted_dense", "WeightedResult"]


class WeightedResult:
    """Outcome of a weighted comparison."""

    __slots__ = ("score", "memo", "weights")

    def __init__(self, score: float, memo: ArcMemoTable, weights: np.ndarray):
        self.score = score
        self.memo = memo
        self.weights = weights

    def __float__(self) -> float:
        return self.score

    def __repr__(self) -> str:
        return f"WeightedResult(score={self.score})"


def _check_weights(s1: Structure, s2: Structure, weights: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (s1.n_arcs, s2.n_arcs):
        raise StructureError(
            f"weight matrix shape {weights.shape} does not match "
            f"({s1.n_arcs}, {s2.n_arcs}) arcs"
        )
    return weights


def _tabulate_weighted_slice(
    memo_values: np.ndarray,
    s1: Structure,
    s2: Structure,
    i1: int,
    j1: int,
    i2: int,
    j2: int,
    *,
    ranges: tuple[tuple[int, int], tuple[int, int]],
    instrumentation=None,
    weights: np.ndarray,
) -> float:
    """Weighted ``TabulateSlice`` over precomputed arc-index ranges.

    Takes the per-slice kernel arguments of :mod:`repro.core.slices` so
    :func:`~repro.core.slices.tabulate_slices_each` can drive it; only
    *ranges* locates the slice, and nothing is counted.
    """
    (lo1, hi1), (lo2, hi2) = ranges
    # Weighted analogue of the d2 terms: W[a1, a2] + A[a1, a2].
    rows = scan_rows(
        weights[lo1:hi1, lo2:hi2] + memo_values[lo1:hi1, lo2:hi2],
        s1.rights[lo1:hi1], s1.lefts[lo1:hi1],
        s2.rights[lo2:hi2], s2.lefts[lo2:hi2],
    )
    return float(rows[-1, -1])


def weighted_mcos(
    s1: Structure,
    s2: Structure,
    weights: np.ndarray,
) -> WeightedResult:
    """Maximum-weight common ordered substructure (two-stage, SRNA2 order).

    *weights* is an ``(|S1|, |S2|)`` matrix of matched-arc-pair scores; see
    :mod:`repro.core.weights` for builders.
    """
    weights = _check_weights(s1, s2, weights)
    memo = ArcMemoTable(s1, s2, dtype=np.float64)
    tabulate = partial(_tabulate_weighted_slice, weights=weights)
    score = run_stages(
        memo, s1, s2, tabulate, partial(tabulate_slices_each, tabulate=tabulate)
    )
    return WeightedResult(score, memo, weights)


def weighted_dense(
    s1: Structure,
    s2: Structure,
    weights: np.ndarray,
    cell_limit: int = 20_000_000,
) -> float:
    """Dense 4-D reference for the weighted recurrence (testing only)."""
    weights = _check_weights(s1, s2, weights)
    n, m = s1.length, s2.length
    if n == 0 or m == 0:
        return 0.0
    if (n * n) * (m * m) > cell_limit:
        raise MemoryError("weighted dense reference limited to small inputs")
    F = np.zeros((n, n, m, m), dtype=np.float64)
    partner1, partner2 = s1.partner, s2.partner
    for j1 in range(n):
        for j2 in range(m):
            out = F[:, j1, :, j2]
            if j1 > 0:
                np.maximum(out, F[:, j1 - 1, :, j2], out=out)
            if j2 > 0:
                np.maximum(out, F[:, j1, :, j2 - 1], out=out)
            k1, k2 = int(partner1[j1]), int(partner2[j2])
            if 0 <= k1 < j1 and 0 <= k2 < j2:
                a = s1.arc_index_ending_at(j1)
                b = s2.arc_index_ending_at(j2)
                d2 = (
                    float(F[k1 + 1, j1 - 1, k2 + 1, j2 - 1])
                    if (k1 + 1 <= j1 - 1 and k2 + 1 <= j2 - 1)
                    else 0.0
                )
                bonus = weights[a, b] + d2
                target = out[: k1 + 1, : k2 + 1]
                if k1 >= 1 and k2 >= 1:
                    cand = F[: k1 + 1, k1 - 1, : k2 + 1, k2 - 1] + bonus
                else:
                    cand = np.full_like(target, bonus)
                np.maximum(target, cand, out=target)
    return float(F[0, n - 1, 0, m - 1])
