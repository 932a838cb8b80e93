"""PRNA: equivalence with SRNA2, synchronization modes, failure injection."""

import numpy as np
import pytest

from repro import solve
from repro.core.slices import ENGINES
from repro.core.srna2 import srna2
from repro.errors import CommunicatorError, SimulationError
from repro.mpi.costmodel import CostModel
from repro.mpi.inprocess import run_threaded
from repro.parallel.prna import SYNC_MODES, prna, prna_rank
from repro.runtime.context import ExecutionContext
from repro.structure.generators import (
    comb_structure,
    contrived_worst_case,
    rna_like_structure,
)
from tests.conftest import make_random_pair


class TestEquivalenceWithSRNA2:
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 5])
    @pytest.mark.parametrize("partitioner", ["greedy", "block", "cyclic"])
    def test_worst_case_tables_identical(self, n_ranks, partitioner):
        s = contrived_worst_case(40)
        ref = srna2(s, s)
        result = prna(
            s, s, n_ranks, backend="thread", partitioner=partitioner,
            validate=True,
        )
        assert result.score == ref.score
        assert np.array_equal(result.memo.values, ref.memo.values)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_structures(self, seed):
        s1, s2 = make_random_pair(seed, max_len=36)
        ref = srna2(s1, s2)
        result = prna(s1, s2, 3, backend="thread", validate=True)
        assert result.score == ref.score
        assert np.array_equal(result.memo.values, ref.memo.values)

    def test_rna_like(self):
        s = rna_like_structure(160, 35, seed=21)
        ref = srna2(s, s)
        result = prna(s, s, 4, backend="thread")
        assert result.score == ref.score == 35

    def test_self_backend_is_srna2(self):
        s = comb_structure(3, 4)
        ref = srna2(s, s)
        result = prna(s, s, 1, backend="self")
        assert result.score == ref.score
        assert np.array_equal(result.memo.values, ref.memo.values)

    def test_process_backend(self):
        s = contrived_worst_case(36)
        result = prna(s, s, 2, backend="process", validate=True)
        assert result.score == 18

    def test_python_engine(self):
        s = comb_structure(2, 3)
        result = prna(s, s, 2, backend="thread", engine="python")
        assert result.score == 6


class _Delegating:
    """A communicator fake: forwards everything it does not override."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _SilentAllreduce(_Delegating):
    """Breaks the row barrier: every ``Allreduce`` leaves the row as is."""

    def Allreduce(self, *args, **kwargs):
        return None


class _CorruptFinalBlock(_Delegating):
    """Breaks dataflow consolidation: the final block arrives off by one."""

    def Publish(self, key, payload, dest, **kwargs):
        if key == ("final", self._inner.rank):
            payload = payload + 1
        return self._inner.Publish(key, payload, dest, **kwargs)


def _run_broken(fake, sync_mode):
    s = contrived_worst_case(30)

    def rank_main(comm):
        return prna_rank(fake(comm), s, s, sync_mode=sync_mode, validate=True)

    return run_threaded(rank_main, 3)


class TestSyncModes:
    def test_sync_modes_are_the_production_schedules(self):
        assert SYNC_MODES == ("row", "dataflow")

    def test_validate_detects_skipped_row_allreduce(self):
        """Without the per-row Allreduce ranks read stale zeros;
        validation must catch the divergent tables."""
        with pytest.raises(CommunicatorError, match="diverged"):
            _run_broken(_SilentAllreduce, "row")

    def test_validate_detects_corrupt_dataflow_consolidation(self):
        with pytest.raises(
            CommunicatorError, match="dataflow consolidation diverged"
        ):
            _run_broken(_CorruptFinalBlock, "dataflow")

    @pytest.mark.parametrize("mode", ["pair", "deferred"])
    def test_removed_sync_modes_rejected(self, mode):
        s = comb_structure(2, 2)
        with pytest.raises(ValueError, match="'row', 'dataflow'"):
            prna(s, s, 1, sync_mode=mode)
        with pytest.raises(ValueError, match="'row', 'dataflow'"):
            solve(s, s, sync_mode=mode)

    def test_unknown_sync_mode(self):
        s = comb_structure(2, 2)
        with pytest.raises(ValueError, match="sync_mode"):
            prna(s, s, 1, sync_mode="psychic")


class TestParameterValidation:
    def test_bad_backend(self):
        s = comb_structure(1, 1)
        with pytest.raises(ValueError, match="backend"):
            prna(s, s, 1, backend="quantum")

    def test_bad_rank_count(self):
        s = comb_structure(1, 1)
        with pytest.raises(SimulationError):
            prna(s, s, 0)

    def test_self_backend_multi_rank(self):
        s = comb_structure(1, 1)
        with pytest.raises(SimulationError, match="exactly one"):
            prna(s, s, 2, backend="self")

    # Validation happens before launching: on the process backend an
    # unknown name must not surface as a failed child rank.
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_bad_partitioner(self, backend):
        s = comb_structure(1, 1)
        with pytest.raises(ValueError, match="partitioner"):
            prna(s, s, 2, backend=backend, partitioner="astrology")

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_bad_engine(self, backend):
        s = comb_structure(1, 1)
        with pytest.raises(ValueError, match="engine"):
            prna(s, s, 2, backend=backend, engine="abacus")

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_bad_sync_mode(self, backend):
        s = comb_structure(1, 1)
        with pytest.raises(ValueError, match="sync_mode"):
            prna(s, s, 2, backend=backend, sync_mode="pair")

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("charge", ["credit-card", "measured"])
    def test_bad_charge(self, backend, charge):
        s = comb_structure(1, 1)
        with pytest.raises(ValueError, match="charge"):
            prna(s, s, 2, backend=backend, charge=charge)


class TestVirtualTime:
    def test_analytic_charging_produces_times(self):
        s = contrived_worst_case(60)
        cost_model = CostModel()
        result = prna(
            s, s, 2, backend="thread", charge="analytic",
            cost_model=cost_model,
        )
        assert result.simulated_time is not None
        assert result.simulated_time > 0

    def test_more_ranks_less_virtual_time(self):
        """Analytic virtual time must drop when ranks are added, once the
        modelled synchronization cost is small relative to compute.  (With
        the default cluster's ~10 ms per-row sync, a 60-arc problem is
        genuinely too small to scale — the flip side of Figure 8's
        larger-problems-scale-better trend — so this test uses a
        near-free network.)"""
        from repro.mpi.costmodel import ClusterSpec

        s = contrived_worst_case(120)
        cost_model = CostModel(
            ClusterSpec(alpha=1e-7, beta=1e-10, sync_overhead=1e-6)
        )
        times = {}
        for p in (1, 4):
            result = prna(
                s, s, p, backend="thread", charge="analytic",
                cost_model=cost_model,
            )
            times[p] = result.simulated_time
        assert times[4] < times[1]


class TestPartitionExposure:
    def test_result_carries_partition(self):
        s = contrived_worst_case(30)
        result = prna(s, s, 3, backend="thread")
        assert result.partition.n_ranks == 3
        assert result.partition.n_tasks == s.n_arcs
        assert int(result) == 15


class TestArcTables:
    """Every rank holds the |A1| x |A2| arc table, never the n x m one."""

    @pytest.mark.parametrize("sync_mode", ["row", "dataflow"])
    def test_every_rank_table_is_arc_sized(self, sync_mode):
        s1 = rna_like_structure(140, 32, seed=3)
        s2 = rna_like_structure(120, 27, seed=4)
        results = ExecutionContext().launch(
            lambda comm: prna_rank(comm, s1, s2, sync_mode=sync_mode),
            n_ranks=3, backend="thread",
        )
        for result in results:
            assert result.memo.shape == (32, 27)
            assert result.memo.nbytes() == 32 * 27 * 8
        result = prna(s1, s2, 3, backend="thread", sync_mode=sync_mode)
        assert result.memo.nbytes() == 32 * 27 * 8

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("sync_mode", ["row", "dataflow"])
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_parity_matrix(self, engine, sync_mode, backend):
        s1 = rna_like_structure(70, 16, seed=11)
        s2 = contrived_worst_case(30)
        ref = srna2(s1, s2)
        result = prna(
            s1, s2, 2, backend=backend, engine=engine, sync_mode=sync_mode
        )
        assert result.score == ref.score
        assert np.array_equal(result.memo.arcs, ref.memo.arcs)
        assert np.array_equal(result.memo.values, ref.memo.values)
