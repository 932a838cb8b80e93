"""Memory accounting: the paper's space-complexity story, measured.

Section IV's headline is the reduction from the Theta(n^2 m^2) table of the
original formulation to SRNA1/SRNA2's Theta(nm) — "sequences of length up
to 1600 were tested, which required about 10 MB of allocated memory".
This module computes the resident table footprint of each algorithm so the
claim can be checked numerically and the contrast tabulated:

* **dense** — the full 4-D table: ``n^2 m^2`` cells;
* **topdown** — one memo entry per *reachable* subproblem (exact
  tabulation), plus dictionary overhead; still Theta(n^2 m^2) on dense
  worst-case structures;
* **srna2 / prna** — the paper's ``n x m`` memo table plus the largest
  live slice (only one slice is resident at a time; PRNA replicates ``M``
  per rank);
* **arc_indexed** — the ``|A1| x |A2|`` arc table this library's SRNA2,
  PRNA ranks, manager-worker and checkpoints actually hold
  (:class:`~repro.core.memo.ArcMemoTable`), plus the same live slice.

The peak-slice term uses the compressed layout actually allocated by
:mod:`repro.core.slices`: ``(a + 1) x (b + 1)`` cells for a slice with
``a``/``b`` arcs inside its intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.structure.arcs import Structure

__all__ = [
    "MemoryFootprint",
    "estimate_footprints",
    "memo_table_bytes",
    "DICT_ENTRY_BYTES",
]

#: Rough CPython cost of one dict entry (key tuple + value + table slot).
DICT_ENTRY_BYTES = 150


@dataclass(frozen=True)
class MemoryFootprint:
    """Resident table bytes of one algorithm on one instance."""

    algorithm: str
    table_bytes: int
    peak_slice_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.table_bytes + self.peak_slice_bytes

    @property
    def megabytes(self) -> float:
        return self.total_bytes / 1e6


def _largest_slice_cells(s1: Structure, s2: Structure) -> int:
    """Cells of the largest slice ever resident (compressed layout).

    The parent slice spans all arcs; among child slices the largest is the
    deepest-nested pair.  Since inside counts are maximized by the parent,
    the parent dominates.
    """
    return (s1.n_arcs + 1) * (s2.n_arcs + 1)


def estimate_footprints(
    s1: Structure,
    s2: Structure,
    itemsize: int = 8,
    n_ranks: int = 1,
) -> dict[str, MemoryFootprint]:
    """Table footprints of every algorithm on the instance ``(s1, s2)``.

    *itemsize* is the cell width in bytes (the library defaults to int64;
    the paper's C implementation used 4-byte cells — pass ``itemsize=4``
    to compare against its "about 10 MB" figure).
    """
    n, m = s1.length, s2.length
    slice_bytes = _largest_slice_cells(s1, s2) * itemsize

    dense_cells = (n * n) * (m * m)
    # Exact-tabulation size: the top-down traversal visits, for each
    # spawnable slice pair, up to width1 x width2 position cells (the
    # parent slice spans the full sequences).  This equals the reachable
    # count on arc-dense worst-case structures and upper-bounds it on
    # sparse ones.
    widths1 = np.concatenate(([n], s1.rights - s1.lefts - 1))
    widths2 = np.concatenate(([m], s2.rights - s2.lefts - 1))
    topdown_cells = int(widths1.sum()) * int(widths2.sum())

    return {
        "dense": MemoryFootprint("dense", dense_cells * 2),  # int16 cells
        "topdown": MemoryFootprint(
            "topdown", topdown_cells * DICT_ENTRY_BYTES
        ),
        "srna2": MemoryFootprint("srna2", n * m * itemsize, slice_bytes),
        "prna": MemoryFootprint(
            "prna", n * m * itemsize * n_ranks, slice_bytes * n_ranks
        ),
        "arc_indexed": MemoryFootprint(
            "arc_indexed", memo_table_bytes(s1, s2, itemsize=itemsize),
            slice_bytes,
        ),
    }


def memo_table_bytes(
    s1: Structure, s2: Structure, algorithm: str = "srna2", itemsize: int = 8
) -> int:
    """Resident bytes of one replica of *algorithm*'s memo table.

    SRNA2, PRNA and manager-worker hold the arc table
    (``|A1| * |A2| * itemsize``); SRNA1 the padded position table plus its
    known-mask; ``dense`` and ``topdown`` their :func:`estimate_footprints`
    tables.
    """
    if algorithm == "srna1":
        return max(s1.length, 1) * max(s2.length, 1) * (itemsize + 1)
    if algorithm in ("dense", "topdown"):
        return estimate_footprints(s1, s2, itemsize)[algorithm].table_bytes
    return s1.n_arcs * s2.n_arcs * itemsize
