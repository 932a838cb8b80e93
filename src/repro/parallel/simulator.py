"""Closed-form trace-driven simulation of PRNA on a modelled cluster.

This is the one PRNA cost model in the tree: Figure 8 is regenerated with
it on a single offline core (see DESIGN.md, substitutions), and the
runtime planner prices its candidate plans through
:meth:`PRNASimulator.price`.  The model walks stage one's exact schedule
-- the same outer row order and the same static column partition PRNA
would use -- and charges:

* per-rank compute from the :class:`~repro.perf.model.WorkModel`
  (paper-calibrated by default), inflated by the cluster's intra-node
  memory-contention factor under round-robin rank placement;
* under the barrier schedules, every row at its slowest rank plus one
  ``Allreduce`` of the ``m``-element memo row per outer iteration (pipe
  or shared-segment, costed by :class:`~repro.mpi.costmodel.CostModel`);
  under the dataflow schedule, which has no per-row barrier, the slowest
  rank's total plus the coalesced point-to-point publications;
* stage two and preprocessing sequentially on rank 0.

The cost is an outer product of arc weights, so the whole simulation
vectorizes over rows -- simulating 64 ranks on 1600 arcs takes
milliseconds, while validating against the *executed* virtual-time
backends at small scale (the tests do this) keeps the model honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.mpi.communicator import Communicator
from repro.mpi.costmodel import ClusterSpec, CostModel, DEFAULT_CLUSTER
from repro.perf.model import WorkModel
from repro.runtime.registry import SYNC_MODES
from repro.scheduling.partition import PARTITIONERS
from repro.scheduling.workload import column_weights
from repro.structure.arcs import Structure

__all__ = [
    "SimulationReport",
    "RankTrace",
    "ExecutionTrace",
    "PRNASimulator",
    "simulate_speedup",
    "STAGE_TERMS",
]

#: Names of the per-stage terms, in :meth:`SimulationReport.stages` order.
STAGE_TERMS = (
    "preprocessing_s", "stage_one_compute_s", "stage_one_comm_s", "stage_two_s"
)


@dataclass(frozen=True)
class RankTrace:
    """Where one rank's stage-one time goes under the simulation."""

    rank: int
    node: int
    compute_seconds: float  # busy tabulating owned slices
    wait_seconds: float  # idle at row syncs waiting for slower ranks
    comm_seconds: float  # inside the Allreduce itself
    owned_columns: int  # outer rows instead under distribute="rows"

    @property
    def utilization(self) -> float:
        total = self.compute_seconds + self.wait_seconds + self.comm_seconds
        if total == 0:
            return 1.0
        return self.compute_seconds / total


@dataclass(frozen=True)
class ExecutionTrace:
    """Per-rank stage-one breakdown (a textual Gantt summary)."""

    n_ranks: int
    ranks: tuple[RankTrace, ...]
    rows: int

    def render(self, width: int = 40) -> str:
        """ASCII utilization bars: '#' compute, '.' wait, '~' comm."""
        lines = [
            f"stage-one utilization over {self.rows} synchronized rows "
            f"(P={self.n_ranks}):"
        ]
        for trace in self.ranks:
            total = (
                trace.compute_seconds + trace.wait_seconds + trace.comm_seconds
            )
            if total <= 0:
                bar = " " * width
            else:
                n_compute = int(round(width * trace.compute_seconds / total))
                n_comm = int(round(width * trace.comm_seconds / total))
                n_wait = max(width - n_compute - n_comm, 0)
                bar = "#" * n_compute + "." * n_wait + "~" * n_comm
            lines.append(
                f"  rank {trace.rank:>3} (node {trace.node}) |{bar}| "
                f"{trace.utilization:6.1%} busy, "
                f"{trace.owned_columns} columns"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class SimulationReport:
    """Simulated timing of one PRNA configuration."""

    n_ranks: int
    total_seconds: float
    stage_one_seconds: float
    stage_two_seconds: float
    preprocessing_seconds: float
    compute_seconds: float  # critical-path compute within stage one
    comm_seconds: float  # stage-one communication on the critical path
    imbalance: float  # max rank load / mean rank load (cells)
    sequential_seconds: float  # modelled one-processor total
    #: Each rank's stage-one compute and owned columns (outer rows under
    #: distribute="rows"), which :meth:`PRNASimulator.trace` renders.
    rank_compute_seconds: tuple[float, ...] = ()
    rank_owned: tuple[int, ...] = ()

    @property
    def speedup(self) -> float:
        """Speedup relative to the modelled sequential run."""
        if self.total_seconds <= 0:
            return float("nan")
        return self.sequential_seconds / self.total_seconds

    @property
    def efficiency(self) -> float:
        return self.speedup / self.n_ranks

    def stages(self) -> dict[str, float]:
        """The per-stage terms, which sum to ``total_seconds``."""
        return dict(zip(STAGE_TERMS, (
            self.preprocessing_seconds, self.compute_seconds,
            self.comm_seconds, self.stage_two_seconds,
        )))


@dataclass
class PRNASimulator:
    """Reusable simulator bound to a cluster, cost and work model."""

    cluster: ClusterSpec = field(default_factory=lambda: DEFAULT_CLUSTER)
    work_model: WorkModel = field(default_factory=WorkModel.default)
    partitioner: str = "greedy"
    allreduce_algorithm: str = "recursive_doubling"
    dtype_bytes: int = 8
    #: "columns" is the paper's design.  "rows" distributes the *outer*
    #: loop (arcs of S1) instead — a negative ablation: every row's slices
    #: depend on earlier rows, so rows cannot proceed concurrently and the
    #: computation serializes behind the per-row synchronization.
    distribute: str = "columns"

    def __post_init__(self) -> None:
        if self.partitioner not in PARTITIONERS:
            raise SimulationError(
                f"unknown partitioner {self.partitioner!r}; "
                f"available: {sorted(PARTITIONERS)}"
            )
        if self.distribute not in ("columns", "rows"):
            raise SimulationError(
                f"distribute must be 'columns' or 'rows', got "
                f"{self.distribute!r}"
            )
        self.cost_model = CostModel(self.cluster)

    # ------------------------------------------------------------------
    def simulate(
        self, s1: Structure, s2: Structure, n_ranks: int
    ) -> SimulationReport:
        """Simulate PRNA for one rank count under the row schedule."""
        if n_ranks > self.cluster.max_ranks:
            raise SimulationError(
                f"cluster has only {self.cluster.max_ranks} cores "
                f"({self.cluster.n_nodes} nodes x "
                f"{self.cluster.cores_per_node}); cannot place {n_ranks} ranks"
            )
        return self.price(s1, s2, n_ranks)

    def price(
        self, s1: Structure, s2: Structure, n_ranks: int,
        schedule: str = "row", shared_memory: bool = False,
    ) -> SimulationReport:
        """The PRNA cost model: per-stage terms of one configuration.

        *schedule* is the stage-one ``sync_mode``.  The barrier schedules
        (``row``, ``pair``) finish every row together, so their compute
        term sums the per-row rank maximum; the barrier-free schedules
        (``dataflow``, ``deferred``) only wait for the slowest rank's
        total.  *shared_memory* prices the collectives as zero-copy
        shared-segment reductions.  Unlike :meth:`simulate` this never
        rejects a world size above the cluster's cores: such ranks are
        priced through its contention factor, as the runtime planner needs.
        """
        if n_ranks < 1:
            raise SimulationError(f"n_ranks must be >= 1, got {n_ranks}")
        if schedule not in SYNC_MODES or (
            self.distribute == "rows" and schedule != "row"
        ):
            raise SimulationError(
                f"cannot price schedule {schedule!r}: one of {SYNC_MODES}, "
                "and only 'row' under distribute='rows'"
            )
        wm = self.work_model
        inside1 = s1.inside_count.astype(np.float64)
        contention = np.array(
            [
                self.cluster.contention_factor(rank, n_ranks)
                for rank in range(n_ranks)
            ]
        )
        if self.distribute == "rows":
            # The negative ablation: one owner per outer row.  Row ``a``'s
            # slices read memo rows written under arcs nested inside ``a``
            # -- rows that generally live on other ranks and were
            # synchronized one outer iteration ago.  So rows still execute
            # in sequence, each at its full cost on its owner: the serial
            # chain, the honest bound for the worst-case input whose rows
            # form one dependency path.
            owners = np.arange(s1.n_arcs) % n_ranks
            costs = np.zeros((s1.n_arcs, n_ranks))
            costs[np.arange(s1.n_arcs), owners] = (
                wm.seconds_per_cell * inside1 * float(s2.inside_count.sum())
                + wm.seconds_per_slice * s2.n_arcs
            ) * contention[owners]
            owned = np.bincount(owners, minlength=n_ranks)
            imbalance = float(n_ranks)
        else:
            # The exact static schedule PRNA would use.
            partition = PARTITIONERS[self.partitioner](
                column_weights(s1, s2), n_ranks
            )
            owner = np.asarray(partition.owner, dtype=np.int64)
            inside2_per_rank = np.bincount(
                owner, weights=s2.inside_count.astype(np.float64),
                minlength=n_ranks,
            )
            owned = np.bincount(owner, minlength=n_ranks)
            # Row r, rank k: (spc * inside1[r] * S_k + sps * C_k) * c_k.
            per_rank_cell = wm.seconds_per_cell * inside2_per_rank * contention
            per_rank_fixed = wm.seconds_per_slice * owned * contention
            costs = np.outer(inside1, per_rank_cell) + per_rank_fixed
            # Load imbalance in cell terms (the quantity Figure 7 motivates).
            loads = partition.loads()
            mean_load = loads.mean() if loads.size else 0.0
            imbalance = (
                float(loads.max() / mean_load) if mean_load > 0 else 1.0
            )

        if schedule in ("row", "pair"):
            compute_seconds = float(costs.max(axis=1).sum())
        else:
            compute_seconds = float(costs.sum(axis=0).max())
        comm_seconds = self._comm_seconds(
            s1, s2, n_ranks, schedule, shared_memory
        )
        stage_one = compute_seconds + comm_seconds
        # Stage two runs on rank 0 alone (no contention); the final score
        # broadcast is one more collective.
        stage_two = wm.parent_slice_seconds(s1, s2)
        if n_ranks > 1:
            stage_two += self.cost_model.bcast(n_ranks, self.dtype_bytes)
        prep = wm.preprocessing_seconds(s1, s2)
        return SimulationReport(
            n_ranks=n_ranks,
            total_seconds=prep + stage_one + stage_two,
            stage_one_seconds=stage_one,
            stage_two_seconds=stage_two,
            preprocessing_seconds=prep,
            compute_seconds=compute_seconds,
            comm_seconds=comm_seconds,
            imbalance=imbalance,
            sequential_seconds=wm.total_sequential_seconds(s1, s2),
            rank_compute_seconds=tuple(costs.sum(axis=0).tolist()),
            rank_owned=tuple(owned.tolist()),
        )

    def _comm_seconds(
        self, s1: Structure, s2: Structure, n_ranks: int, schedule: str,
        shared_memory: bool,
    ) -> float:
        """Stage-one communication on the critical path of *schedule*.

        The collective schedules pay one ``Allreduce`` of an ``m``-element
        memo row per outer arc (``row``) or per arc pair (``pair``).

        The dataflow schedule pays point-to-point traffic: per arc with a
        reader, every consumer receives its column segment (``~n2/P``
        cells); the communicator coalesces small publications up to its
        cell threshold, so the latency term scales with *flushed batches*,
        not publications, while the bandwidth term always pays for every
        cell.  One final block per peer consolidates the table at rank 0
        for stage two.  No collective appears, hence no per-row
        ``sync_overhead`` -- the term that makes the row barrier expensive
        on latency-bound transports.
        """
        if n_ranks <= 1 or schedule == "deferred":
            return 0.0
        if schedule == "dataflow":
            # Arcs some later arc depends on: the union of inner ranges.
            ranges = s1.inner_ranges
            cover = np.zeros(s1.n_arcs + 1, dtype=np.int64)
            np.add.at(cover, ranges[:, 0], 1)
            np.add.at(cover, ranges[:, 1], -1)
            readers = int(np.count_nonzero(np.cumsum(cover[:-1])))
            seg_cells = max(s2.n_arcs // n_ranks, 1)
            seg_bytes = seg_cells * self.dtype_bytes
            publications = readers * (n_ranks - 1)
            coalesce = max(Communicator.publish_coalesce_cells // seg_cells, 1)
            messages = -(-publications // coalesce)
            return (
                messages * self.cluster.alpha
                + publications * seg_bytes * self.cluster.beta
                + (n_ranks - 1) * self.cost_model.p2p(s1.n_arcs * seg_bytes)
            )
        collectives = s1.n_arcs * (s2.n_arcs if schedule == "pair" else 1)
        row_bytes = max(s2.length, 1) * self.dtype_bytes
        if shared_memory:
            return self.cluster.shm_setup + collectives * (
                self.cost_model.shm_allreduce(n_ranks, row_bytes)
            )
        return collectives * self.cost_model.allreduce(
            n_ranks, row_bytes, self.allreduce_algorithm
        )

    def sweep(
        self, s1: Structure, s2: Structure, rank_counts: list[int]
    ) -> list[SimulationReport]:
        """Simulate a whole speedup curve (Figure 8 x-axis)."""
        return [self.simulate(s1, s2, p) for p in rank_counts]

    def trace(
        self, s1: Structure, s2: Structure, n_ranks: int
    ) -> ExecutionTrace:
        """Per-rank stage-one time breakdown under the row schedule.

        Each synchronized row costs ``max_r(compute) + allreduce``; a rank
        busy for less than the row maximum *waits* for the difference.
        Summing over rows gives each rank's compute/wait/comm split -- the
        quantity the load-balancing ablation visualizes.  Every rank's
        split adds up to :meth:`simulate`'s ``stage_one_seconds``.
        """
        report = self.simulate(s1, s2, n_ranks)
        ranks = tuple(
            RankTrace(
                rank=rank,
                node=self.cluster.node_of_rank(rank),
                compute_seconds=busy,
                wait_seconds=report.compute_seconds - busy,
                comm_seconds=report.comm_seconds,
                owned_columns=owned,
            )
            for rank, (busy, owned) in enumerate(
                zip(report.rank_compute_seconds, report.rank_owned)
            )
        )
        return ExecutionTrace(n_ranks=n_ranks, ranks=ranks, rows=s1.n_arcs)


def simulate_speedup(
    s1: Structure,
    s2: Structure,
    rank_counts: list[int] | None = None,
    **kwargs,
) -> dict[int, float]:
    """Convenience wrapper: ``{n_ranks: speedup}`` for a rank sweep."""
    if rank_counts is None:
        rank_counts = [1, 2, 4, 8, 16, 32, 64]
    simulator = PRNASimulator(**kwargs)
    return {
        report.n_ranks: report.speedup
        for report in simulator.sweep(s1, s2, rank_counts)
    }
