"""What the benchmark reports: workloads and metrics, with units.

Kept free of ``repro`` imports so the parent process can name and check
metrics without loading the package.  ``BENCHMARK.json`` at the repository
root mirrors these tables; ``test_suite.py`` checks that they agree.
"""

from __future__ import annotations

#: Workload name -> why it is in the benchmark.
WORKLOADS: dict[str, str] = {
    "worst-pair": (
        "the paper's Table I / Figure 8 stress case: slice-kernel time "
        "dominates every PRNA rank, so kernel and partition changes show here"
    ),
    "rrna-pair": (
        "rRNA-sized sparse topology: PRNA dependency waits, Publish/Await "
        "traffic and the result-return path dominate"
    ),
    "search": (
        "one query against 200 targets through solve_batch's fork pool: "
        "many mid-size SRNA2 runs that never touch repro.mpi or PRNA"
    ),
    "small-pairs": (
        "thousands of small dot-bracket pairs: per-call overhead of the "
        "parser, planner and run record dominates the kernel"
    ),
}

#: End-to-end metric -> (unit, better, regression bound as a share).
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "solve_s": ("s", "lower", 0.25),
    "pairs_per_s": ("pairs/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

#: Per-layer metric -> (unit, better), in the order tables print them.
PER_LAYER: dict[str, tuple[str, str]] = {
    "structure.parse_s": ("s", "lower"),
    "runtime.plan_s": ("s", "lower"),
    "runtime.facade_s": ("s", "lower"),
    "runtime.return_s": ("s", "lower"),
    "runtime.plan_regret": ("ratio", "lower"),
    "runtime.model_error": ("ratio", "lower"),
    "scheduling.partition_s": ("s", "lower"),
    "scheduling.cells_imbalance": ("ratio", "lower"),
    "srna2.solve_s": ("s", "lower"),
    "srna2.preprocessing_s": ("s", "lower"),
    "srna2.stage_one_s": ("s", "lower"),
    "srna2.stage_two_s": ("s", "lower"),
    "slices.cells": ("count", "lower"),
    "slices.calls": ("count", "lower"),
    "slices.cells_per_s": ("cells/s", "higher"),
    "slices.call_us_p50": ("us", "lower"),
    "slices.gather_bytes": ("bytes", "lower"),
    "parallel.rank_wall_s_max": ("s", "lower"),
    "parallel.stage_one_s_max": ("s", "lower"),
    "parallel.compute_s_max": ("s", "lower"),
    "parallel.dep_wait_s_max": ("s", "lower"),
    "parallel.dep_wait_share": ("ratio", "lower"),
    "parallel.stage_two_s": ("s", "lower"),
    "mpi.sync_points": ("count", "lower"),
    "mpi.publishes": ("count", "lower"),
    "mpi.awaits": ("count", "lower"),
    "mpi.coalesced_cells": ("count", "lower"),
    "mpi.publish_bytes": ("bytes", "lower"),
    "mpi.allreduce_bytes": ("bytes", "lower"),
    "mpi.result_bytes": ("bytes", "lower"),
    "mpi.launch_s": ("s", "lower"),
    "mpi.rtt_us": ("us", "lower"),
    "mpi.pipe_mb_per_s": ("MB/s", "higher"),
    "mpi.publish_await_us": ("us", "lower"),
    "batch.serial_pairs_per_s": ("pairs/s", "higher"),
    "batch.pool_efficiency": ("ratio", "higher"),
    "solve_s_p90": ("s", "lower"),
    "trace_overhead_s": ("s", "lower"),
}

#: Per-layer counters that must repeat exactly for a given seed.
EXACT_COUNTERS = (
    "slices.cells", "slices.calls", "slices.gather_bytes",
    "scheduling.cells_imbalance",
    "mpi.sync_points", "mpi.publishes", "mpi.awaits", "mpi.coalesced_cells",
    "mpi.publish_bytes", "mpi.allreduce_bytes", "mpi.result_bytes",
)
