"""The planner prices PRNA through the simulator's model and nothing else."""

import pytest

from repro.errors import SimulationError
from repro.mpi.costmodel import ClusterSpec
from repro.parallel.simulator import PRNASimulator
from repro.perf.model import WorkModel
from repro.runtime import solve
from repro.runtime.plan import Planner, ResourceHints, local_cluster
from repro.structure.generators import contrived_worst_case, rna_like_structure

CASES = {
    "worst-400": lambda: (contrived_worst_case(400),) * 2,
    "rna-like": lambda: (
        rna_like_structure(600, 150, seed=1),
        rna_like_structure(600, 150, seed=2),
    ),
}


def _model(cluster, plan, s1, s2):
    return PRNASimulator(
        cluster=cluster, work_model=WorkModel.default(),
        partitioner=plan.partitioner,
    ).price(s1, s2, plan.n_ranks, schedule=plan.sync_mode)


@pytest.mark.parametrize("sync_mode", ["row", "dataflow"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_estimate_is_the_model_total(case, sync_mode):
    s1, s2 = CASES[case]()
    cluster = local_cluster(8)
    planner = Planner(ResourceHints(
        max_ranks=8, cluster=cluster, work_model=WorkModel.default()
    ))
    plan = planner.plan(s1, s2, algorithm="prna", sync_mode=sync_mode)
    assert plan.sync_mode == sync_mode
    model = _model(cluster, plan, s1, s2)
    assert plan.estimated_seconds == model.total_seconds
    assert dict(plan.predicted_stages) == model.stages()


@pytest.mark.parametrize("partitioner", ["greedy", "block"])
def test_auto_plan_is_priced_for_its_own_configuration(partitioner):
    s = contrived_worst_case(400)
    cluster = local_cluster(8)
    planner = Planner(ResourceHints(
        max_ranks=8, cluster=cluster, work_model=WorkModel.default()
    ))
    plan = planner.plan(s, s, partitioner=partitioner)
    assert plan.algorithm == "prna"
    assert plan.estimated_seconds == _model(cluster, plan, s, s).total_seconds


def test_oversubscribed_world_size_is_priced_not_rejected():
    s = contrived_worst_case(400)
    small = ClusterSpec(cores_per_node=2, n_nodes=1)
    planner = Planner(ResourceHints(
        max_ranks=8, cluster=small, work_model=WorkModel.default()
    ))
    for n_ranks in (None, 4):
        plan = planner.plan(s, s, algorithm="prna", n_ranks=n_ranks)
        assert plan.estimated_seconds > 0


def test_sequential_plan_predicts_no_communication():
    s = contrived_worst_case(40)
    wm = WorkModel.default()
    plan = Planner(ResourceHints(max_ranks=8, work_model=wm)).plan(s, s)
    assert plan.algorithm == "srna2"
    predicted = dict(plan.predicted_stages)
    assert predicted["stage_one_comm_s"] == 0.0
    assert predicted["stage_one_compute_s"] == wm.stage_one_seconds(s, s)
    assert plan.estimated_seconds == wm.total_sequential_seconds(s, s)


@pytest.mark.parametrize("algorithm", ["prna", "auto"])
def test_empty_world_is_rejected(algorithm):
    s = contrived_worst_case(400)
    with pytest.raises(SimulationError, match="n_ranks must be >= 1"):
        solve(s, s, algorithm=algorithm, n_ranks=0)
