"""Ablations of the design choices DESIGN.md calls out.

Each function isolates one decision the paper (or this reproduction) made
and quantifies the alternative:

* :func:`memoization` — SRNA1 with the memo probe disabled ("this is not
  dynamic programming at all", Section IV-A): spawns explode.
* :func:`memo_backends` — dense array+mask probes vs the paper's literal
  ``KEY_NOT_FOUND`` dictionary memo.
* :func:`lazy_vs_allpairs` — SRNA1's lazy spawning vs SRNA2's all-pairs
  stage one: slices tabulated and cells touched.
* :func:`slice_engines` — vectorized vs pure-Python ``TabulateSlice``.
* :func:`partitioners` — greedy (paper) vs block vs cyclic: simulated
  speedup and load imbalance at scale.
* :func:`decomposition` — column distribution (paper) vs row distribution
  (negative result: rows serialize).
* :func:`scheduling_scheme` — static greedy vs manager-worker dynamic
  balancing (the HiCOMB 2009 contrast of Section II).
* :func:`collectives` — allreduce algorithm choice under the cost model.
* :func:`sync_granularity` — row barrier (paper) vs dataflow stage one:
  executed virtual-time cost.
* :func:`backends` — thread vs process wall-clock on real executions (the
  GIL demonstration).
* :func:`lockfree_baseline` — redundancy of the randomized top-down
  shared-memo scheme (Section II's scaling concern).
"""

from __future__ import annotations

import time

from repro.analysis.tables import format_table
from repro.core.instrument import Instrumentation
from repro.core.srna1 import srna1
from repro.core.srna2 import srna2
from repro.experiments.report import ExperimentRecord
from repro.mpi.costmodel import CostModel, DEFAULT_CLUSTER
from repro.parallel.lockfree import lockfree_mcos
from repro.parallel.prna import prna
from repro.parallel.simulator import PRNASimulator
from repro.structure.generators import contrived_worst_case, rna_like_structure

__all__ = [
    "memoization",
    "memo_backends",
    "lazy_vs_allpairs",
    "slice_engines",
    "partitioners",
    "decomposition",
    "scheduling_scheme",
    "collectives",
    "sync_granularity",
    "backends",
    "lockfree_baseline",
    "run",
]


def memoization(max_arcs: int = 9) -> ExperimentRecord:
    """Spawn counts with and without SRNA1's memoization."""
    rows = []
    for arcs in range(2, max_arcs + 1):
        structure = contrived_worst_case(2 * arcs)
        with_memo = Instrumentation()
        srna1(structure, structure, memoize=True, instrumentation=with_memo)
        without = Instrumentation()
        srna1(structure, structure, memoize=False, instrumentation=without)
        rows.append(
            {
                "nested_arcs": arcs,
                "spawns_memoized": with_memo.spawns,
                "spawns_unmemoized": without.spawns,
                "blowup": without.spawns / max(with_memo.spawns, 1),
            }
        )
    rendered = format_table(
        ["nested arcs", "spawns (memoized)", "spawns (no memo)", "blowup"],
        [
            [r["nested_arcs"], r["spawns_memoized"], r["spawns_unmemoized"],
             f"{r['blowup']:.1f}x"]
            for r in rows
        ],
        title="Ablation: SRNA1 memoization (worst-case self-comparison)",
    )
    return ExperimentRecord(
        "ablation_memoization", "Section IV-A", {"max_arcs": max_arcs},
        rows, rendered,
        notes="Without memoization child slices re-spawn combinatorially.",
    )


def memo_backends(length: int = 120) -> ExperimentRecord:
    """Dense array+mask probes vs the paper's literal dictionary memo."""
    structure = contrived_worst_case(length)
    rows = []
    for backend in ("dense", "sparse"):
        start = time.perf_counter()
        result = srna1(structure, structure, memo_backend=backend)
        elapsed = time.perf_counter() - start
        rows.append(
            {"backend": backend, "seconds": elapsed, "score": result.score}
        )
    rendered = format_table(
        ["memo backend", "seconds", "score"],
        [[r["backend"], r["seconds"], r["score"]] for r in rows],
        title="Ablation: SRNA1 memo backends (array+mask vs dict)",
    )
    return ExperimentRecord(
        "ablation_memo_backends", "Section IV-B (lookup overhead)",
        {"length": length}, rows, rendered,
        notes=(
            "The dictionary probe is the KEY_NOT_FOUND formulation of "
            "Algorithm 1; its per-probe cost is what SRNA2 eliminates."
        ),
    )


def lazy_vs_allpairs(length: int = 120) -> ExperimentRecord:
    """SRNA1's exact spawning vs SRNA2's all-pairs stage one."""
    rows = []
    for name, structure in (
        ("worst-case", contrived_worst_case(length)),
        ("rna-like", rna_like_structure(length * 4, length, seed=11)),
    ):
        inst1 = Instrumentation()
        srna1(structure, structure, instrumentation=inst1)
        inst2 = Instrumentation()
        srna2(structure, structure, instrumentation=inst2)
        rows.append(
            {
                "structure": name,
                "n_arcs": structure.n_arcs,
                "srna1_slices": inst1.slices_tabulated,
                "srna2_slices": inst2.slices_tabulated,
                "srna1_cells": inst1.cells_tabulated,
                "srna2_cells": inst2.cells_tabulated,
            }
        )
    rendered = format_table(
        ["structure", "arcs", "SRNA1 slices", "SRNA2 slices",
         "SRNA1 cells", "SRNA2 cells"],
        [
            [r["structure"], r["n_arcs"], r["srna1_slices"],
             r["srna2_slices"], r["srna1_cells"], r["srna2_cells"]]
            for r in rows
        ],
        title="Ablation: lazy spawning (SRNA1) vs all-pairs stage one (SRNA2)",
    )
    return ExperimentRecord(
        "ablation_lazy_vs_allpairs", "Sections IV-A/IV-B",
        {"length": length}, rows, rendered,
        notes=(
            "Measured finding: the slice sets coincide on every input — "
            "the parent slice's bottom-up sweep probes all |S1| x |S2| arc "
            "pairs, so SRNA1 spawns exactly the pairs SRNA2's stage one "
            "enumerates.  SRNA2's advantage is therefore purely the "
            "removal of the per-cell probe and recursion, exactly the "
            "paper's Section IV-B claim."
        ),
    )


def slice_engines(length: int = 120) -> ExperimentRecord:
    """Vectorized vs pure-Python TabulateSlice."""
    structure = contrived_worst_case(length)
    rows = []
    for engine in ("vectorized", "python"):
        start = time.perf_counter()
        result = srna2(structure, structure, engine=engine)
        elapsed = time.perf_counter() - start
        rows.append(
            {"engine": engine, "seconds": elapsed, "score": result.score}
        )
    speedup = rows[1]["seconds"] / rows[0]["seconds"]
    rendered = format_table(
        ["engine", "seconds", "score"],
        [[r["engine"], r["seconds"], r["score"]] for r in rows],
        title=f"Ablation: slice engines (vectorized is {speedup:.1f}x faster)",
    )
    return ExperimentRecord(
        "ablation_slice_engines", "implementation", {"length": length},
        rows, rendered,
        notes="Same results; NumPy row kernels vs per-cell Python.",
    )


def partitioners(length: int = 3200, n_ranks: int = 64) -> ExperimentRecord:
    """Greedy (paper) vs block vs cyclic column distribution, simulated."""
    structure = contrived_worst_case(length)
    rows = []
    for name in ("greedy", "block", "cyclic"):
        simulator = PRNASimulator(partitioner=name)
        report = simulator.simulate(structure, structure, n_ranks)
        rows.append(
            {
                "partitioner": name,
                "speedup": report.speedup,
                "imbalance": report.imbalance,
            }
        )
    rendered = format_table(
        ["partitioner", "simulated speedup", "load imbalance"],
        [[r["partitioner"], f"{r['speedup']:.2f}x", f"{r['imbalance']:.3f}"]
         for r in rows],
        title=f"Ablation: column partitioners (P={n_ranks}, {length//2} arcs)",
    )
    return ExperimentRecord(
        "ablation_partitioners", "Section V-A",
        {"length": length, "n_ranks": n_ranks}, rows, rendered,
        notes="Graham's greedy balancing is the paper's choice.",
    )


def decomposition(length: int = 3200, n_ranks: int = 64) -> ExperimentRecord:
    """Column distribution (paper) vs row distribution (negative result)."""
    structure = contrived_worst_case(length)
    rows = []
    for mode in ("columns", "rows"):
        simulator = PRNASimulator(distribute=mode)
        report = simulator.simulate(structure, structure, n_ranks)
        rows.append({"distribute": mode, "speedup": report.speedup})
    rendered = format_table(
        ["distribution", "simulated speedup"],
        [[r["distribute"], f"{r['speedup']:.2f}x"] for r in rows],
        title=f"Ablation: work decomposition (P={n_ranks}, "
        f"{length//2} nested arcs)",
    )
    return ExperimentRecord(
        "ablation_decomposition", "Section V-A",
        {"length": length, "n_ranks": n_ranks}, rows, rendered,
        notes=(
            "Distributing the outer rows serializes behind the row-to-row "
            "dependency chain — the structural reason PRNA distributes "
            "columns, whose relative work is row-invariant (Figure 7)."
        ),
    )


def scheduling_scheme(length: int = 3200, n_ranks: int = 64) -> ExperimentRecord:
    """Static greedy partition (PRNA) vs manager-worker dynamic balancing
    (the HiCOMB 2009 approach §II contrasts)."""
    from repro.parallel.managerworker import simulate_manager_worker

    structure = contrived_worst_case(length)
    static = PRNASimulator().simulate(structure, structure, n_ranks).speedup
    dynamic = simulate_manager_worker(structure, structure, n_ranks)
    rows = [
        {"scheme": "static greedy (PRNA)", "speedup": static},
        {"scheme": "manager-worker (dynamic)", "speedup": dynamic},
    ]
    rendered = format_table(
        ["scheduling", "simulated speedup"],
        [[r["scheme"], f"{r['speedup']:.2f}x"] for r in rows],
        title=f"Ablation: scheduling scheme (P={n_ranks}, "
        f"{length//2} nested arcs)",
    )
    return ExperimentRecord(
        "ablation_scheduling_scheme", "Section II (HiCOMB 2009 contrast)",
        {"length": length, "n_ranks": n_ranks}, rows, rendered,
        notes=(
            "Dynamic assignment needs no work model but pays three "
            "manager messages per slice and idles the manager rank; for "
            "this predictable workload the paper's static partition wins."
        ),
    )


def collectives(length: int = 3200, n_ranks: int = 64) -> ExperimentRecord:
    """Allreduce algorithm choice under the cost model."""
    structure = contrived_worst_case(length)
    rows = []
    for algo in ("recursive_doubling", "ring", "linear"):
        simulator = PRNASimulator(allreduce_algorithm=algo)
        report = simulator.simulate(structure, structure, n_ranks)
        rows.append(
            {
                "algorithm": algo,
                "speedup": report.speedup,
                "comm_seconds": report.comm_seconds,
            }
        )
    rendered = format_table(
        ["allreduce", "simulated speedup", "comm seconds"],
        [[r["algorithm"], f"{r['speedup']:.2f}x", r["comm_seconds"]]
         for r in rows],
        title=f"Ablation: allreduce algorithms (P={n_ranks})",
    )
    return ExperimentRecord(
        "ablation_collectives", "Section V-B",
        {"length": length, "n_ranks": n_ranks}, rows, rendered,
        notes="Per-row reductions are small; latency terms dominate.",
    )


def sync_granularity(length: int = 200, n_ranks: int = 4) -> ExperimentRecord:
    """Row barrier (paper) vs dataflow stage one, executed virtual time.

    These are the two schedules the planner chooses between.
    """
    structure = contrived_worst_case(length)
    cost_model = CostModel(DEFAULT_CLUSTER)
    rows = []
    for mode in ("row", "dataflow"):
        result = prna(
            structure, structure, n_ranks,
            backend="thread", sync_mode=mode,
            charge="analytic", cost_model=cost_model, validate=True,
        )
        rows.append(
            {
                "sync_mode": mode,
                "virtual_seconds": result.simulated_time,
                "score": result.score,
            }
        )
    rendered = format_table(
        ["sync mode", "virtual seconds", "score"],
        [[r["sync_mode"], r["virtual_seconds"], r["score"]] for r in rows],
        title=f"Ablation: synchronization granularity (P={n_ranks}, "
        f"{length//2} arcs)",
    )
    return ExperimentRecord(
        "ablation_sync_granularity", "Section V-B",
        {"length": length, "n_ranks": n_ranks}, rows, rendered,
        notes=(
            "The row barrier pays one Allreduce per outer arc and waits "
            "for the slowest rank every row; dataflow publishes only the "
            "cells later arcs read, point to point."
        ),
    )


def backends(length: int = 160, n_ranks: int = 2) -> ExperimentRecord:
    """Thread vs process backends, real wall-clock (the GIL demonstration)."""
    structure = contrived_worst_case(length)
    rows = []
    start = time.perf_counter()
    sequential = srna2(structure, structure)
    seq_seconds = time.perf_counter() - start
    rows.append(
        {"backend": "sequential (SRNA2)", "ranks": 1,
         "wall_seconds": seq_seconds, "score": sequential.score}
    )
    for backend in ("thread", "process"):
        start = time.perf_counter()
        result = prna(structure, structure, n_ranks, backend=backend)
        elapsed = time.perf_counter() - start
        rows.append(
            {"backend": backend, "ranks": n_ranks,
             "wall_seconds": elapsed, "score": result.score}
        )
    rendered = format_table(
        ["backend", "ranks", "wall seconds", "score"],
        [[r["backend"], r["ranks"], r["wall_seconds"], r["score"]]
         for r in rows],
        title="Ablation: execution backends (real wall clock, this host)",
    )
    return ExperimentRecord(
        "ablation_backends", "reproduction note",
        {"length": length, "n_ranks": n_ranks}, rows, rendered,
        notes=(
            "Threads cannot speed up the Python-side work (GIL); processes "
            "can on multi-core hosts. On a single-core host both carry "
            "overhead only — the virtual-time simulation is the speedup "
            "vehicle."
        ),
    )


def lockfree_baseline(length: int = 60) -> ExperimentRecord:
    """Redundant evaluations of the randomized top-down baseline."""
    structure = contrived_worst_case(length)
    rows = []
    for workers in (1, 2, 4, 8):
        stats = lockfree_mcos(structure, structure, n_workers=workers, seed=1)
        rows.append(
            {
                "workers": workers,
                "score": stats.score,
                "distinct": stats.distinct_subproblems,
                "evaluations": stats.total_evaluations,
                "redundancy": stats.redundancy,
            }
        )
    rendered = format_table(
        ["workers", "distinct subproblems", "total evaluations", "redundancy"],
        [[r["workers"], r["distinct"], r["evaluations"],
          f"{r['redundancy']:.2f}"] for r in rows],
        title="Ablation: lock-free randomized top-down baseline [8]",
    )
    return ExperimentRecord(
        "ablation_lockfree", "Section II",
        {"length": length}, rows, rendered,
        notes=(
            "Redundancy >= 1 counts duplicated subproblem evaluations; the "
            "paper's criticism is that divergence shrinks as workers grow."
        ),
    )


def run(scale: str = "default") -> list[ExperimentRecord]:
    """Run every ablation at a size suitable for *scale*."""
    small = scale == "quick"
    return [
        memoization(max_arcs=7 if small else 9),
        memo_backends(length=60 if small else 120),
        lazy_vs_allpairs(length=60 if small else 120),
        slice_engines(length=60 if small else 120),
        partitioners(length=800 if small else 3200),
        decomposition(length=800 if small else 3200),
        scheduling_scheme(length=800 if small else 3200),
        collectives(length=800 if small else 3200),
        sync_granularity(length=100 if small else 200),
        backends(length=100 if small else 160),
        lockfree_baseline(length=40 if small else 60),
    ]
