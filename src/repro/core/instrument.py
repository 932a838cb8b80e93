"""Operation counters and stage timers.

The paper's evaluation reports per-stage execution shares (Table III) and
discusses overheads eliminated between SRNA1 and SRNA2 (memo lookups, the
spawn conditional, recursion).  :class:`Instrumentation` records exactly
those quantities so experiments and ablations can report them.

Counting is optional: algorithms accept ``instrumentation=None`` and skip
all bookkeeping in that case, keeping hot loops clean.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Instrumentation", "StageTimes", "STAGES"]

#: The three stages of the paper's algorithms (Table III rows).  These are
#: the only names :meth:`Instrumentation.stage` accepts.
STAGES = ("preprocessing", "stage_one", "stage_two")


@dataclass
class StageTimes:
    """Wall-clock seconds per algorithm stage (paper Table III rows)."""

    preprocessing: float = 0.0
    stage_one: float = 0.0
    stage_two: float = 0.0

    @property
    def total(self) -> float:
        return self.preprocessing + self.stage_one + self.stage_two

    def percentages(self) -> dict[str, float]:
        """Stage shares as percentages, matching Table III's layout."""
        total = self.total
        if total <= 0.0:
            return {"preprocessing": 0.0, "stage_one": 0.0, "stage_two": 0.0}
        return {
            "preprocessing": 100.0 * self.preprocessing / total,
            "stage_one": 100.0 * self.stage_one / total,
            "stage_two": 100.0 * self.stage_two / total,
        }


@dataclass
class Instrumentation:
    """Mutable counters threaded through a single algorithm run."""

    slices_tabulated: int = 0
    cells_tabulated: int = 0
    memo_lookups: int = 0
    memo_hits: int = 0
    spawns: int = 0
    max_recursion_depth: int = 0
    _recursion_depth: int = field(default=0, repr=False)
    stage_times: StageTimes = field(default_factory=StageTimes)
    #: Optional :class:`repro.obs.tracer.Tracer`; when set, :meth:`stage`
    #: also emits a span (category ``"stage"``) on track ``trace_rank``.
    tracer: object | None = field(default=None, repr=False, compare=False)
    trace_rank: int = field(default=0, repr=False, compare=False)

    # ------------------------------------------------------------------
    def count_slice(self, n_cells: int) -> None:
        """Record one tabulated slice of *n_cells* subproblem cells."""
        self.slices_tabulated += 1
        self.cells_tabulated += int(n_cells)

    def count_batch(self, n_slices: int, n_cells: int) -> None:
        """Record *n_slices* slices tabulated together in one batch.

        Keeps the counters identical to per-slice tabulation (*n_cells* is
        the batch total), so engine choice never changes instrumentation
        totals — a property the cross-check tests assert.
        """
        self.slices_tabulated += int(n_slices)
        self.cells_tabulated += int(n_cells)

    def count_lookup(self, hit: bool) -> None:
        """Record one memo probe and whether it hit."""
        self.memo_lookups += 1
        if hit:
            self.memo_hits += 1

    @contextmanager
    def recursion(self):
        """Track recursion depth of child-slice spawning (SRNA1)."""
        self._recursion_depth += 1
        self.spawns += 1
        self.max_recursion_depth = max(
            self.max_recursion_depth, self._recursion_depth
        )
        try:
            yield
        finally:
            self._recursion_depth -= 1

    @contextmanager
    def stage(self, name: str):
        """Time a named stage (``preprocessing``/``stage_one``/``stage_two``).

        Unknown names raise :class:`ValueError` — a silent ``setattr``
        would create a stray attribute that never counts toward
        :attr:`StageTimes.total`, corrupting Table III shares.
        """
        if name not in STAGES:
            raise ValueError(
                f"unknown stage {name!r}; one of {STAGES}"
            )
        span = (
            self.tracer.span(name, rank=self.trace_rank, category="stage")
            if self.tracer is not None
            else None
        )
        if span is not None:
            span.__enter__()
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            if span is not None:
                span.__exit__(None, None, None)
            setattr(
                self.stage_times, name, getattr(self.stage_times, name) + elapsed
            )

    def summary(self) -> dict[str, float | int]:
        """Flat dictionary of all counters (for reports and tests)."""
        out: dict[str, float | int] = {
            "slices_tabulated": self.slices_tabulated,
            "cells_tabulated": self.cells_tabulated,
            "memo_lookups": self.memo_lookups,
            "memo_hits": self.memo_hits,
            "spawns": self.spawns,
            "max_recursion_depth": self.max_recursion_depth,
            "time_preprocessing": self.stage_times.preprocessing,
            "time_stage_one": self.stage_times.stage_one,
            "time_stage_two": self.stage_times.stage_two,
            "time_total": self.stage_times.total,
        }
        return out
