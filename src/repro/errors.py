"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` and
friends) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "StructureError",
    "PseudoknotError",
    "SharedEndpointError",
    "ParseError",
    "SchedulingError",
    "CommunicatorError",
    "CollectiveMismatchError",
    "SanitizerError",
    "SimulationError",
    "BacktraceError",
    "ExperimentError",
    "MemoryBudgetError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class StructureError(ReproError):
    """An RNA secondary structure violates the model's constraints."""


class PseudoknotError(StructureError):
    """Two arcs cross, which the non-pseudoknot model forbids."""

    def __init__(self, arc_a: tuple[int, int], arc_b: tuple[int, int]):
        self.arc_a = arc_a
        self.arc_b = arc_b
        super().__init__(
            f"arcs {arc_a} and {arc_b} cross; the non-pseudoknot model "
            "requires arcs to be nested or sequential"
        )


class SharedEndpointError(StructureError):
    """Two arcs share a sequence position, i.e. a base is bonded twice."""

    def __init__(self, position: int, arc_a: tuple[int, int], arc_b: tuple[int, int]):
        self.position = position
        self.arc_a = arc_a
        self.arc_b = arc_b
        super().__init__(
            f"position {position} is an endpoint of both {arc_a} and {arc_b}; "
            "each base may be linked at most once"
        )


class ParseError(ReproError):
    """A structure file or dot-bracket string could not be parsed."""


class SchedulingError(ReproError):
    """A workload partition is invalid (overlapping or incomplete)."""


class CommunicatorError(ReproError):
    """Misuse of the message-passing substrate."""


class CollectiveMismatchError(CommunicatorError):
    """Ranks disagreed on a collective call (shape, op, or call sequence)."""


class SanitizerError(CollectiveMismatchError):
    """A runtime SPMD sanitizer detected a protocol violation.

    Raised by :mod:`repro.check.sanitizer` with a diagnostic code
    (``SAN101``-``SAN104`` for collective-protocol violations, ``SAN201``-
    ``SAN203`` for memo-table races) plus the diverging rank and call site.
    """


class SimulationError(ReproError):
    """The virtual-time cluster simulation was configured inconsistently."""


class BacktraceError(ReproError):
    """The DP tables could not be traced back to a common substructure."""


class ExperimentError(ReproError):
    """An experiment harness was invoked with inconsistent parameters."""


class MemoryBudgetError(ReproError):
    """A plan's memo table cannot fit the caller's memory budget.

    Raised at plan time by :class:`repro.runtime.plan.Planner` when even
    one replica of the table (or the caller's requested world of them)
    exceeds ``ResourceHints.memory_bytes``.
    """

    def __init__(self, footprint: int, budget: int, what: str):
        self.footprint = footprint
        self.budget = budget
        super().__init__(
            f"memo footprint {footprint / 1e6:.3g} MB ({what}) exceeds the "
            f"{budget / 1e6:.3g} MB memory budget"
        )
