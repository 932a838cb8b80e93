"""Analytic work model for stage one of SRNA2/PRNA.

The cost of tabulating the child slice of arc pair ``(p, q)`` is modelled as

    seconds(p, q) = seconds_per_cell * inside1[p] * inside2[q]
                    + seconds_per_slice

— a per-cell term (the vectorized row kernels sweep ``inside1 * inside2``
cells) plus a fixed per-slice overhead (interval lookups, array setup, the
memo store).  Summed over all pairs this reproduces the familiar
Theta(n^2 m^2) bound; restricted to one rank's owned columns it drives the
virtual clocks and the closed-form Figure 8 simulator.

Two calibrations matter:

* :meth:`WorkModel.default` — **paper-calibrated**: ``seconds_per_cell`` is
  derived from Table I's SRNA2 time at n = 1600 (660.696 s over
  ``(sum inside1)^2 = 319600^2`` cells, giving ~6.47e-9 s/cell), so
  simulated speedups are relative to the *paper's* sequential machine.
  Consistency check: the same constant predicts Table III's stage-two share
  (~1.3 ms of a 37.8 s run at n = 800) to within measurement noise.
* :func:`repro.perf.calibrate.calibrate_work_model` — **machine-calibrated**
  from a short SRNA2 run here, for simulations relative to this host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.structure.arcs import Structure

__all__ = ["WorkModel", "PAPER_SECONDS_PER_CELL", "PAPER_SECONDS_PER_SLICE"]

#: Table I, SRNA2, n=1600: 660.696 s / (sum(0..799))^2 cells.
PAPER_SECONDS_PER_CELL = 660.696 / float(sum(range(800)) ** 2)

#: Per-slice fixed overhead of the paper's C implementation (estimated from
#: the residual between Table I rows; sub-microsecond).
PAPER_SECONDS_PER_SLICE = 5.0e-7


@dataclass(frozen=True)
class WorkModel:
    """Per-cell / per-slice cost coefficients for stage-one work."""

    seconds_per_cell: float = PAPER_SECONDS_PER_CELL
    seconds_per_slice: float = PAPER_SECONDS_PER_SLICE

    @classmethod
    def default(cls) -> "WorkModel":
        """The paper-calibrated model (see module docstring)."""
        return cls()

    # ------------------------------------------------------------------
    def row_seconds(
        self,
        inside1_a: int,
        inside2: np.ndarray,
        owned_columns: Sequence[int],
    ) -> float:
        """Cost of one stage-one row restricted to *owned_columns*."""
        if len(owned_columns) == 0:
            return 0.0
        owned = np.asarray(owned_columns, dtype=np.int64)
        cells = float(inside1_a) * float(inside2[owned].sum())
        return (
            self.seconds_per_cell * cells
            + self.seconds_per_slice * len(owned_columns)
        )

    def stage_one_seconds(self, s1: Structure, s2: Structure) -> float:
        """Sequential cost of all of stage one (every arc pair)."""
        cells = float(s1.inside_count.sum()) * float(s2.inside_count.sum())
        return (
            self.seconds_per_cell * cells
            + self.seconds_per_slice * s1.n_arcs * s2.n_arcs
        )

    def parent_slice_seconds(self, s1: Structure, s2: Structure) -> float:
        """Cost of stage two (the parent slice spans all arcs)."""
        return (
            self.seconds_per_cell * s1.n_arcs * s2.n_arcs
            + self.seconds_per_slice
        )

    def preprocessing_seconds(self, s1: Structure, s2: Structure) -> float:
        """Endpoint scan + load balance: linear in positions and arcs."""
        per_item = 2.0e-9
        return per_item * (
            s1.length + s2.length + s1.n_arcs + s2.n_arcs
        )

    def total_sequential_seconds(self, s1: Structure, s2: Structure) -> float:
        """Modelled SRNA2 wall time (all three stages, one processor)."""
        return (
            self.preprocessing_seconds(s1, s2)
            + self.stage_one_seconds(s1, s2)
            + self.parent_slice_seconds(s1, s2)
        )
