"""High-level public API for RNA secondary structure comparison.

Most users need exactly one call::

    from repro import mcos
    result = mcos(s1, s2)
    result.score            # number of matched arcs
    result.matched_pairs    # the common substructure (if requested)

``algorithm`` selects between the paper's algorithms and the baselines —
``"srna2"`` (default, fastest), ``"srna1"``, ``"topdown"``, ``"dense"`` —
all of which produce identical scores (a fact the test suite leans on
heavily).  Since the :mod:`repro.runtime` refactor this function is a thin
shim over the solver facade: every call is planned
(:class:`repro.runtime.Planner`) and recorded, ``algorithm="auto"`` /
``engine="auto"`` hand the choice to the planner, and the parallel
algorithms (``"prna"``, ``"managerworker"``) are accepted too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.backtrace import MatchedPair
from repro.core.instrument import Instrumentation
from repro.runtime.registry import SEQUENTIAL_ALGORITHMS
from repro.runtime.solver import solve
from repro.structure.arcs import Structure
from repro.structure.dotbracket import from_dotbracket

__all__ = ["CommonStructureResult", "mcos", "mcos_size", "common_substructure"]

#: Back-compat alias — the sequential algorithm names now live in
#: :mod:`repro.runtime.registry`.
ALGORITHMS = SEQUENTIAL_ALGORITHMS


@dataclass
class CommonStructureResult:
    """Result of a structure comparison."""

    score: int
    algorithm: str
    matched_pairs: list[MatchedPair] | None = None
    instrumentation: Instrumentation | None = field(default=None, repr=False)

    def __int__(self) -> int:
        return self.score


def _coerce(structure: Structure | str) -> Structure:
    """Accept a Structure or a dot-bracket string."""
    if isinstance(structure, Structure):
        return structure
    return from_dotbracket(structure)


def mcos(
    s1: Structure | str,
    s2: Structure | str,
    *,
    algorithm: str = "srna2",
    engine: str = "auto",
    with_backtrace: bool = False,
    instrument: bool = False,
    instrumentation: Instrumentation | None = None,
) -> CommonStructureResult:
    """Maximum Common Ordered Substructure of two structures.

    Parameters
    ----------
    s1, s2:
        :class:`Structure` objects or dot-bracket strings.
    algorithm:
        ``"srna2"`` (default), ``"srna1"``, ``"topdown"``, ``"dense"`` —
        or ``"auto"`` to let the planner choose (which may select a
        parallel algorithm for large inputs), or a parallel algorithm
        name directly.
    engine:
        Slice engine (``"batched"``, ``"vectorized"`` or ``"python"``;
        see :data:`repro.core.slices.ROW_ENGINES`), or ``"auto"``
        (default: the planner's choice, the ``"batched"`` engine, whose
        stage one advances all child slices of an outer arc together).
    with_backtrace:
        Also recover the matched arc pairs (requires ``srna1``/``srna2``).
    instrument:
        Attach operation counters and stage timers to the result.
    instrumentation:
        Use this caller-owned :class:`Instrumentation` instead of creating
        one — e.g. one carrying a :class:`repro.obs.tracer.Tracer` so stage
        spans land in a trace file.  Implies ``instrument``.
    """
    if instrumentation is not None:
        inst = instrumentation
    else:
        inst = Instrumentation() if instrument else None
    result = solve(
        _coerce(s1), _coerce(s2),
        algorithm=algorithm, engine=engine,
        with_backtrace=with_backtrace, instrumentation=inst,
        record_kind="mcos",
    )
    return CommonStructureResult(
        result.score, result.algorithm, result.matched_pairs,
        result.instrumentation,
    )


def mcos_size(s1: Structure | str, s2: Structure | str) -> int:
    """Just the MCOS score, using the fastest algorithm (SRNA2)."""
    return mcos(s1, s2).score


def common_substructure(
    s1: Structure | str, s2: Structure | str
) -> list[MatchedPair]:
    """The matched arc pairs of an optimal common substructure."""
    return mcos(s1, s2, with_backtrace=True).matched_pairs or []
