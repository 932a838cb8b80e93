"""Ablation benchmarks for the design choices DESIGN.md calls out."""

import pytest

from repro.core.instrument import Instrumentation
from repro.core.srna1 import srna1
from repro.core.topdown import topdown_mcos
from repro.mpi.costmodel import CostModel
from repro.parallel.lockfree import lockfree_mcos
from repro.parallel.prna import prna
from repro.parallel.simulator import PRNASimulator
from repro.structure.generators import contrived_worst_case


# ----------------------------------------------------------------------
# Memoization on/off (Section IV-A's cautionary variant)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("memoize", [True, False], ids=["memo", "no-memo"])
def test_srna1_memoization(benchmark, memoize):
    structure = contrived_worst_case(16)
    inst = Instrumentation()

    def run():
        inst_local = Instrumentation()
        result = srna1(
            structure, structure, memoize=memoize,
            instrumentation=inst_local,
        )
        inst.spawns = inst_local.spawns
        return result

    result = benchmark(run)
    assert result.score == 8
    benchmark.extra_info["spawns"] = inst.spawns


# ----------------------------------------------------------------------
# Baseline comparison at one size: top-down vs SRNA1 vs lock-free
# ----------------------------------------------------------------------
def test_baseline_topdown(benchmark):
    structure = contrived_worst_case(60)
    score = benchmark.pedantic(
        lambda: topdown_mcos(structure, structure), rounds=1, iterations=1
    )
    assert score == 30


def test_baseline_lockfree_two_workers(benchmark):
    structure = contrived_worst_case(60)
    stats = benchmark.pedantic(
        lambda: lockfree_mcos(structure, structure, n_workers=2),
        rounds=1, iterations=1,
    )
    assert stats.score == 30
    benchmark.extra_info["redundancy"] = round(stats.redundancy, 3)


def test_baseline_srna1(benchmark):
    structure = contrived_worst_case(60)
    result = benchmark(lambda: srna1(structure, structure))
    assert result.score == 30


# ----------------------------------------------------------------------
# Partitioners and collective algorithms under the simulator
# ----------------------------------------------------------------------
@pytest.mark.parametrize("partitioner", ["greedy", "block", "cyclic"])
def test_partitioner_simulated(benchmark, partitioner):
    structure = contrived_worst_case(3200)
    simulator = PRNASimulator(partitioner=partitioner)
    report = benchmark(lambda: simulator.simulate(structure, structure, 64))
    benchmark.extra_info["simulated_speedup"] = round(report.speedup, 2)
    benchmark.extra_info["imbalance"] = round(report.imbalance, 4)


@pytest.mark.parametrize(
    "algorithm", ["recursive_doubling", "ring", "linear"]
)
def test_allreduce_algorithm_simulated(benchmark, algorithm):
    structure = contrived_worst_case(3200)
    simulator = PRNASimulator(allreduce_algorithm=algorithm)
    report = benchmark(lambda: simulator.simulate(structure, structure, 64))
    benchmark.extra_info["simulated_speedup"] = round(report.speedup, 2)
    benchmark.extra_info["comm_seconds"] = round(report.comm_seconds, 3)


# ----------------------------------------------------------------------
# Execution backends (real wall clock — the GIL demonstration)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_prna_backend_wall_clock(benchmark, backend):
    structure = contrived_worst_case(120)
    result = benchmark.pedantic(
        lambda: prna(structure, structure, 2, backend=backend),
        rounds=1, iterations=1,
    )
    assert result.score == 60


# ----------------------------------------------------------------------
# Synchronization granularity under executed virtual time
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sync_mode", ["row", "dataflow"])
def test_sync_granularity_virtual(benchmark, sync_mode):
    structure = contrived_worst_case(100)
    cost_model = CostModel()

    def run():
        return prna(
            structure, structure, 2,
            backend="thread", sync_mode=sync_mode,
            charge="analytic", cost_model=cost_model,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.score == 50
    benchmark.extra_info["virtual_seconds"] = round(result.simulated_time, 4)
