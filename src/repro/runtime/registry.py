"""The single registry of solver-stack names.

Algorithm, engine, backend, partitioner and sync-mode name lists used to be
duplicated across ``core/api.py``, ``core/slices.py``, ``parallel/prna.py``
and the CLI's ``choices=`` lists; they live here once, next to the single
validation point every layer shares.

:func:`validate_choice` is that validation point: it accepts the sentinel
``"auto"`` where the caller allows it, and turns a typo into a
``ValueError`` carrying a did-you-mean suggestion (``"unknown algorithm
'snra2' ...; did you mean 'srna2'?"``) rather than a bare KeyError three
layers down.

The *implementations* stay where they belong — engine callables in
:data:`repro.core.slices.ENGINES`, partitioner callables in
:data:`repro.scheduling.partition.PARTITIONERS` — this module only owns
the names and their classification.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Sequence

from repro.core.slices import ENGINES
from repro.scheduling.partition import PARTITIONERS

__all__ = [
    "AUTO",
    "SEQUENTIAL_ALGORITHMS",
    "PARALLEL_ALGORITHMS",
    "ALGORITHMS",
    "BATCH_ALGORITHMS",
    "ENGINE_NAMES",
    "BACKENDS",
    "PARTITIONER_NAMES",
    "SYNC_MODES",
    "ScheduleDeclaration",
    "declare_schedule",
    "executor_schedules",
    "CostContract",
    "declare_cost",
    "kernel_costs",
    "cost_contract_for",
    "INPUT_BOUNDS",
    "engine_applies",
    "validate_choice",
]

#: Sentinel accepted wherever the planner may choose for the caller.
AUTO = "auto"

#: The paper's sequential algorithms and their baselines — all produce
#: identical scores (the equivalence tests lean on this heavily).
SEQUENTIAL_ALGORITHMS = ("srna2", "srna1", "topdown", "dense")

#: The parallel algorithms: the paper's static-partition PRNA and the
#: HiCOMB-style dynamic manager-worker contrast.
PARALLEL_ALGORITHMS = ("prna", "managerworker")

#: Every algorithm the solver facade can dispatch.
ALGORITHMS = SEQUENTIAL_ALGORITHMS + PARALLEL_ALGORITHMS

#: Algorithms usable for the per-pair scoring of a database search
#: (``solve_batch`` parallelizes *across* pairs, so the per-pair run is
#: sequential by construction).
BATCH_ALGORITHMS = SEQUENTIAL_ALGORITHMS

#: Slice engine names, in the order of the implementation registry.
ENGINE_NAMES = tuple(sorted(ENGINES))

#: Execution backends for the SPMD algorithms.
BACKENDS = ("self", "thread", "process")

#: Column partitioners (static load balancing strategies).
PARTITIONER_NAMES = tuple(sorted(PARTITIONERS))

#: PRNA stage-one schedules (``"row"`` is the paper's per-row barrier;
#: ``"dataflow"`` is the dependency-driven point-to-point schedule of
#: :mod:`repro.parallel.dataflow`, no intra-stage collectives at all).
SYNC_MODES = ("row", "dataflow")

#: Algorithms that take a slice engine at all (``srna1`` recurses through
#: its own memo probes; ``topdown``/``dense`` are cell-level baselines).
_ENGINE_ALGORITHMS = frozenset({"srna2", "prna", "managerworker"})

_CHOICES: dict[str, tuple[str, ...]] = {
    "algorithm": ALGORITHMS,
    "batch algorithm": BATCH_ALGORITHMS,
    "engine": ENGINE_NAMES,
    "backend": BACKENDS,
    "partitioner": PARTITIONER_NAMES,
    "sync_mode": SYNC_MODES,
}


@dataclass(frozen=True)
class ScheduleDeclaration:
    """An executor's declared memo-cell publication schedule.

    The static protocol verifier (``repro.check.protocol``, rule family
    SCHED0xx) checks every declaration against the recurrence's actual
    ``d1``/``d2`` dependency pairs
    (:func:`repro.analysis.depgraph.arc_dependency_pairs`): the declared
    ``order`` must publish each dependency arc strictly before every arc
    that reads it, and a declaration that publishes ``"none"`` is
    refuted outright (SCHED002).  A new executor registers its schedule
    here and the checker proves (or refutes) its legality at check time
    instead of as an SAN202 divergence at runtime.

    ``key``
        ``"<executor>:<sync_mode>"`` — both halves must exist in the
        registry's name catalogs (else SCHED003).
    ``entry``
        Dotted name of the SPMD entry point implementing the schedule.
    ``publishes``
        What crosses the rank boundary per stage: ``"row"`` (a memo row
        per S1 arc), ``"cells"`` (point-to-point segments), or ``"none"``.
    ``order``
        The arc publication order: ``"right-endpoint"`` is the paper's
        (identical to arc index order, provably legal); anything else is
        checked sample-by-sample.
    """

    key: str
    entry: str
    publishes: str
    order: str


_SCHEDULES: dict[str, ScheduleDeclaration] = {}


def declare_schedule(declaration: ScheduleDeclaration) -> ScheduleDeclaration:
    """Register an executor's publication schedule for SCHED checks."""
    _SCHEDULES[declaration.key] = declaration
    return declaration


def executor_schedules() -> tuple[ScheduleDeclaration, ...]:
    """Every declared executor schedule, in registration order."""
    return tuple(_SCHEDULES.values())


# The shipped executors' schedules.  PRNA's row barrier publishes in
# right-endpoint (= arc index) order, the order under which the memo
# dependency matrix is strictly lower-triangular.
declare_schedule(
    ScheduleDeclaration(
        key="prna:row", entry="repro.parallel.prna.prna_rank",
        publishes="row", order="right-endpoint",
    )
)
# The dataflow executor publishes *cells* (per-consumer row segments)
# point-to-point instead of reducing whole rows collectively; legality
# rests on the same right-endpoint order the SCHED checker proves
# strictly lower-triangular, and the runtime sanitizer cross-checks every
# Publish against this declaration.
declare_schedule(
    ScheduleDeclaration(
        key="prna:dataflow",
        entry="repro.parallel.dataflow.dataflow_stage_one",
        publishes="cells", order="right-endpoint",
    )
)
declare_schedule(
    ScheduleDeclaration(
        key="managerworker:row",
        entry="repro.parallel.managerworker.manager_worker_rank",
        publishes="row", order="right-endpoint",
    )
)


# ----------------------------------------------------------------------
# Cost contracts and input bounds (audited by ``repro.check``'s dataflow pass)
# ----------------------------------------------------------------------

#: Declared bounds on solver inputs.  These are *contracts*, not limits
#: enforced at runtime: the numeric dataflow verifier
#: (``repro.check``, rule family DTYPE1xx) uses them to prove
#: or refute dtype-overflow claims about the kernels — e.g. that the
#: batched engine's segmented prefix-max lift (``seg_id * stride``,
#: :mod:`repro.core.slices`) stays far below the int64 limit for every
#: input satisfying these bounds, while provably overflowing any
#: sub-64-bit integer dtype.
INPUT_BOUNDS: dict[str, int] = {
    # Longest supported sequence (positions per structure).
    "max_length": 1 << 20,
    # Arcs per structure; a structure cannot have more arcs than half its
    # length, but the bound is kept independent so the overflow proofs do
    # not rely on that invariant.
    "max_arcs": 1 << 19,
    # Largest attainable slice/memo value: one point per matched arc pair,
    # so it is bounded by the arc count.
    "max_value": 1 << 19,
}


@dataclass(frozen=True)
class CostContract:
    """A kernel's declared asymptotic cost, statically audited.

    The planner's :class:`~repro.perf.model.WorkModel` prices stage one at
    ``seconds_per_cell * inside1 * inside2`` — a **degree-2** model per
    slice (rows x columns).  Those degrees used to be hand-asserted
    constants; a contract pins them to a specific kernel entry point and
    ``repro.check`` (rule family COST0xx) extracts each
    kernel's actual loop-nest/vector-op degree from the AST and refutes
    any declaration that disagrees, so an accidental ``O(n^3)`` rewrite of
    a kernel fails the static pass instead of silently invalidating every
    plan the cost model produces.

    ``key``
        ``"engine:<name>"`` for the per-slice engines in
        :data:`ENGINE_NAMES` (every engine must carry one — COST002
        otherwise), or ``"kernel:<name>"`` for internal kernels worth
        auditing on their own.
    ``entry``
        Dotted name of the audited function.  For the batched engine the
        contract sits on the segmented kernel, not the chunked batch
        driver — the driver's chunk loop re-walks columns and would
        extract as an extra degree even though its *amortized* work is
        the declared polynomial.
    ``degree``
        Asymptotic degree in the slice dimensions (rows/columns); must
        equal the statically extracted degree (COST001 otherwise).
    ``polynomial``
        Human-readable cost polynomial, serialized into
        ``plan.explain()`` so a plan's cost assumptions are auditable.
    """

    key: str
    entry: str
    degree: int
    polynomial: str


_COSTS: dict[str, CostContract] = {}


def declare_cost(contract: CostContract) -> CostContract:
    """Register a kernel cost contract for COST checks."""
    _COSTS[contract.key] = contract
    return contract


def kernel_costs() -> tuple[CostContract, ...]:
    """Every declared cost contract, in registration order."""
    return tuple(_COSTS.values())


def cost_contract_for(key: str) -> CostContract | None:
    """The contract registered under *key* (``"engine:batched"``), if any."""
    return _COSTS.get(key)


# The shipped kernels' contracts.  All engines are degree 2 in the slice
# dimensions (the WorkModel's seconds_per_cell * rows * cols).  The
# per-slice engines' contracts sit on their kernels; the batched engine's
# lives on ``_segmented_tabulate`` because its row entry only adds chunking
# around it.  Its row loop reads each row's d2 terms with one ``np.take``
# from the arc-table row and runs five width-long kernels, so the degree
# stays 2 in (n_rows, width).
declare_cost(
    CostContract(
        key="engine:python",
        entry="repro.core.slices.tabulate_slice_python",
        degree=2,
        polynomial="n_rows * n_cols",
    )
)
declare_cost(
    CostContract(
        key="engine:vectorized",
        entry="repro.core.slices.tabulate_slice_vectorized",
        degree=2,
        polynomial="n_rows * n_cols (one arc-table block + 4 row kernels)",
    )
)
declare_cost(
    CostContract(
        key="engine:batched",
        entry="repro.core.slices._segmented_tabulate",
        degree=2,
        polynomial="n_rows * width (width = n_seg + total columns)",
    )
)
# The dataflow schedule's plan derivation: the per-rank read-set sweep is
# a rank loop over per-rank arc lists writing range masks — degree 3 in
# (ranks, arcs, range width), all O(P * n2) in practice because the owned
# lists partition the arcs.  The planner prices the schedule's *traffic*
# from the plan (dependency edges x latency/bandwidth), so the derivation
# cost itself must stay honest and audited.
declare_cost(
    CostContract(
        key="kernel:dataflow-plan",
        entry="repro.parallel.dataflow.build_dataflow_plan",
        degree=3,
        polynomial="n_ranks * n_arcs2 (per-rank read-set union over"
        " inner ranges)",
    )
)


def engine_applies(algorithm: str) -> bool:
    """Whether *algorithm* tabulates through a selectable slice engine."""
    return algorithm in _ENGINE_ALGORITHMS


def _suggest(value: str, choices: Sequence[str]) -> str:
    matches = difflib.get_close_matches(value, choices, n=1, cutoff=0.5)
    return f"; did you mean {matches[0]!r}?" if matches else ""


def validate_choice(
    kind: str,
    value: str,
    *,
    allow_auto: bool = False,
    choices: Sequence[str] | None = None,
) -> str:
    """Validate *value* against the registry's list for *kind*.

    Returns the value unchanged when valid (including ``"auto"`` when
    *allow_auto*); raises ``ValueError`` with the full choice list and a
    did-you-mean suggestion otherwise.  *choices* overrides the registry
    list for callers validating a restricted subset.
    """
    options = tuple(choices) if choices is not None else _CHOICES[kind]
    if value in options or (allow_auto and value == AUTO):
        return value
    shown = options + ((AUTO,) if allow_auto else ())
    raise ValueError(
        f"unknown {kind} {value!r}; choose from {shown}"
        f"{_suggest(value, shown)}"
    )
