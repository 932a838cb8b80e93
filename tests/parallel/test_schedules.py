"""Per-schedule pricing in the simulator's PRNA cost model."""

import pytest

from repro.errors import SimulationError
from repro.mpi.costmodel import CostModel
from repro.parallel.prna import prna
from repro.parallel.simulator import PRNASimulator
from repro.perf.model import WorkModel
from repro.runtime.plan import local_cluster
from repro.structure.generators import contrived_worst_case, rna_like_structure


@pytest.fixture
def simulator():
    return PRNASimulator(cluster=local_cluster(8))


@pytest.fixture
def pair():
    return rna_like_structure(400, 100, seed=3), rna_like_structure(400, 100, seed=4)


def test_dataflow_waits_only_for_the_slowest_rank(simulator, pair):
    s1, s2 = pair
    row = simulator.price(s1, s2, 4, schedule="row")
    dataflow = simulator.price(s1, s2, 4, schedule="dataflow")
    busiest = max(r.compute_seconds for r in simulator.trace(s1, s2, 4).ranks)
    assert dataflow.compute_seconds == pytest.approx(busiest)
    assert dataflow.compute_seconds <= row.compute_seconds


def test_collective_schedules(simulator, pair):
    s1, s2 = pair
    cost, row_bytes = simulator.cost_model, s2.n_arcs * 8
    row = simulator.price(s1, s2, 4, schedule="row")
    assert row.comm_seconds == pytest.approx(
        s1.n_arcs * cost.allreduce(4, row_bytes)
    )


def test_stages_sum_to_total(simulator, pair):
    report = simulator.price(*pair, 4, schedule="dataflow")
    assert sum(report.stages().values()) == pytest.approx(report.total_seconds)


def test_price_accepts_oversubscription_simulate_does_not(pair):
    simulator = PRNASimulator(cluster=local_cluster(2))
    assert simulator.price(*pair, 4).total_seconds > 0
    with pytest.raises(SimulationError, match="cannot place"):
        simulator.simulate(*pair, 4)


def test_unknown_or_unsupported_schedule():
    s = contrived_worst_case(100)
    with pytest.raises(SimulationError, match="cannot price schedule"):
        PRNASimulator().price(s, s, 2, schedule="diagonal")
    with pytest.raises(SimulationError, match="only 'row' under"):
        PRNASimulator(distribute="rows").price(s, s, 2, schedule="dataflow")


def test_price_rejects_an_empty_world(pair):
    with pytest.raises(SimulationError, match="n_ranks must be >= 1"):
        PRNASimulator().price(*pair, 0)


@pytest.mark.parametrize("n_ranks", [2, 4])
@pytest.mark.parametrize("case", ["worst", "rna-like"])
def test_dataflow_matches_executed_virtual_time(case, n_ranks):
    """The dataflow price against an executed analytic-charge run.

    Executed ranks still wait on cross-rank inner-row cells, but with
    these inputs the model's coalesced publication term over-counts the
    executed traffic by more than those waits add: measured within 6 %
    (executed at or below the model) on the planner's local cluster.
    """
    if case == "worst":
        s1 = s2 = contrived_worst_case(160)
    else:
        s1 = rna_like_structure(300, 75, seed=1)
        s2 = rna_like_structure(300, 75, seed=2)
    simulator = PRNASimulator(cluster=local_cluster(8))
    predicted = simulator.price(s1, s2, n_ranks, schedule="dataflow")
    executed = prna(
        s1, s2, n_ranks,
        backend="thread", charge="analytic", sync_mode="dataflow",
        work_model=WorkModel.default(),
        cost_model=CostModel(simulator.cluster),
    ).simulated_time
    assert executed == pytest.approx(predicted.total_seconds, rel=0.10)
