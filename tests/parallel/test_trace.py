"""Per-rank execution traces from the simulator."""

import pytest

from repro.errors import SimulationError
from repro.mpi.costmodel import ClusterSpec
from repro.parallel.simulator import PRNASimulator
from repro.structure.generators import contrived_worst_case, rna_like_structure


class TestTrace:
    def test_accounting_consistent_with_report(self):
        """compute + wait must equal the report's critical-path compute for
        every rank (all ranks finish each row together)."""
        s = contrived_worst_case(400)
        simulator = PRNASimulator()
        report = simulator.simulate(s, s, 8)
        trace = simulator.trace(s, s, 8)
        for rank in trace.ranks:
            assert rank.compute_seconds + rank.wait_seconds == pytest.approx(
                report.compute_seconds
            )
            assert rank.comm_seconds == pytest.approx(report.comm_seconds)

    def test_columns_partition(self):
        s = contrived_worst_case(200)
        trace = PRNASimulator().trace(s, s, 4)
        assert sum(r.owned_columns for r in trace.ranks) == s.n_arcs

    def test_greedy_high_utilization(self):
        """With greedy balancing on the worst case, every rank should be
        busy most of the time."""
        s = contrived_worst_case(1600)
        trace = PRNASimulator().trace(s, s, 8)
        for rank in trace.ranks:
            assert rank.utilization > 0.8

    def test_block_partition_starves_ranks(self):
        """Block partitioning the monotone worst-case weights leaves early
        ranks starved — visible as low utilization."""
        s = contrived_worst_case(1600)
        trace = PRNASimulator(partitioner="block").trace(s, s, 8)
        utilizations = [r.utilization for r in trace.ranks]
        assert min(utilizations) < 0.5
        assert max(utilizations) > 0.9

    def test_render(self):
        s = rna_like_structure(200, 40, seed=9)
        trace = PRNASimulator().trace(s, s, 3)
        text = trace.render(width=20)
        assert "rank   0" in text
        assert text.count("|") == 2 * 3  # two bars delimiters per rank
        assert "busy" in text

    def test_single_rank_never_waits(self):
        s = contrived_worst_case(200)
        trace = PRNASimulator().trace(s, s, 1)
        assert trace.ranks[0].wait_seconds == pytest.approx(0.0)
        assert trace.ranks[0].comm_seconds == 0.0
        assert trace.ranks[0].utilization == pytest.approx(1.0)

    def test_invalid_ranks(self):
        s = contrived_worst_case(100)
        with pytest.raises(SimulationError):
            PRNASimulator().trace(s, s, 0)

    @pytest.mark.parametrize("distribute", ["columns", "rows"])
    def test_rank_split_adds_up_to_stage_one(self, distribute):
        """trace reads the same computation simulate reports from."""
        s = contrived_worst_case(200)
        simulator = PRNASimulator(distribute=distribute)
        stage_one = simulator.simulate(s, s, 8).stage_one_seconds
        trace = simulator.trace(s, s, 8)
        for rank in trace.ranks:
            assert (
                rank.compute_seconds + rank.wait_seconds + rank.comm_seconds
            ) == pytest.approx(stage_one)

    def test_row_distribution_owns_rows(self):
        s = contrived_worst_case(200)
        trace = PRNASimulator(distribute="rows").trace(s, s, 8)
        assert sum(r.owned_columns for r in trace.ranks) == s.n_arcs
        # Rows serialize: every rank idles while the others compute.
        assert all(r.utilization < 0.25 for r in trace.ranks)

    def test_too_many_ranks(self):
        s = contrived_worst_case(100)
        simulator = PRNASimulator(
            cluster=ClusterSpec(cores_per_node=2, n_nodes=1)
        )
        with pytest.raises(SimulationError, match="cannot place"):
            simulator.trace(s, s, 4)
