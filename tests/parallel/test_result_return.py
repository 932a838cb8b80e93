"""The result-return path: rank 0's table reaches the parent without a pipe.

The drivers (``prna``, ``manager_worker`` and both parallel branches of
``Solver``) hand the ranks a parent-owned table from
``ExecutionContext.result_memo``; rank 0 fills it in place and every rank
returns ``memo=None``.  These tests pin the mechanism (the returned memo
is backed by that anonymous mapping, the per-rank results are small) and
the parity bar (bit-identical to SRNA2) across the process-backend
schedule × sanitize matrix.
"""

import mmap
import os
import pickle

import numpy as np
import pytest

from repro.core.srna2 import srna2
from repro.mpi.costmodel import CostModel
from repro.parallel.managerworker import manager_worker, manager_worker_rank
from repro.parallel.prna import prna, prna_rank
from repro.runtime.context import ExecutionContext
from repro.runtime.solver import solve
from repro.structure.arcs import Structure
from repro.structure.generators import contrived_worst_case, rna_like_structure

#: The two production stage-one schedules.
SCHEDULES = ["row", "dataflow"]


def _mapped(values: np.ndarray) -> bool:
    """Whether *values* is a view of an ``mmap`` (the parent-owned table)."""
    base = values
    while isinstance(base, (np.ndarray, memoryview)):
        base = base.base if isinstance(base, np.ndarray) else base.obj
    return isinstance(base, mmap.mmap)


def _shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux hosts
        return set()


@pytest.fixture(scope="module", autouse=True)
def no_leaked_segments():
    before = _shm_entries()
    yield
    assert _shm_entries() - before == set()


@pytest.fixture(scope="module")
def pair():
    s1 = rna_like_structure(120, 30, seed=5)
    s2 = rna_like_structure(110, 28, seed=6)
    return s1, s2, srna2(s1, s2)


class TestPrnaDriver:
    @pytest.mark.parametrize("sanitize", [False, True])
    @pytest.mark.parametrize("sync_mode", SCHEDULES)
    def test_process_matrix(self, pair, sync_mode, sanitize):
        s1, s2, ref = pair
        result = prna(
            s1, s2, 2, backend="process", sync_mode=sync_mode,
            sanitize=sanitize,
        )
        assert result.score == ref.score
        assert np.array_equal(result.memo.values, ref.memo.values)
        assert _mapped(result.memo.arcs)

    def test_cost_model_path(self, pair):
        s1, s2, ref = pair
        result = prna(s1, s2, 2, backend="process", cost_model=CostModel())
        assert result.simulated_time is not None and result.simulated_time > 0
        assert np.array_equal(result.memo.values, ref.memo.values)
        assert _mapped(result.memo.arcs)

    @pytest.mark.parametrize("backend", ["thread", "self"])
    def test_in_process_backends_share_the_path(self, pair, backend):
        s1, s2, ref = pair
        ranks = 1 if backend == "self" else 2
        result = prna(s1, s2, ranks, backend=backend)
        assert np.array_equal(result.memo.values, ref.memo.values)
        assert _mapped(result.memo.arcs)

    @pytest.mark.parametrize("other", [Structure(0, ()), Structure(7, ())])
    def test_zero_arc_shapes(self, other):
        s = contrived_worst_case(12)
        for s1, s2 in ((other, s), (s, other), (other, other)):
            ref = srna2(s1, s2)
            result = prna(s1, s2, 2, backend="process")
            assert result.score == ref.score == 0
            assert result.memo.shape == (s1.n_arcs, s2.n_arcs)
            assert np.array_equal(result.memo.values, ref.memo.values)
            assert _mapped(result.memo.arcs)


class TestRankResults:
    @pytest.mark.parametrize("sync_mode", SCHEDULES)
    def test_ranks_return_no_table(self, pair, sync_mode):
        s1, s2, ref = pair
        context = ExecutionContext()
        out = context.result_memo(s1, s2)
        results = context.launch(
            lambda comm: prna_rank(comm, s1, s2, sync_mode=sync_mode, out=out),
            n_ranks=2, backend="process",
        )
        table_bytes = s1.n_arcs * s2.n_arcs * 8
        for result in results:
            assert result.memo is None
            assert len(pickle.dumps(result)) < table_bytes / 2
        assert np.array_equal(out.arcs, ref.memo.arcs)

    def test_without_out_ranks_keep_their_tables(self, pair):
        s1, s2, ref = pair
        results = ExecutionContext().launch(
            lambda comm: prna_rank(comm, s1, s2, shared_memory=False),
            n_ranks=2, backend="process",
        )
        assert all(result.memo is not None for result in results)
        assert np.array_equal(results[0].memo.values, ref.memo.values)

    def test_out_shape_is_checked(self, pair):
        s1, s2, _ = pair
        wrong = ExecutionContext().result_memo(s1, s1)
        with pytest.raises(ValueError, match="out table has shape"):
            ExecutionContext().launch(
                lambda comm: prna_rank(comm, s1, s2, out=wrong), backend="self"
            )

    def test_result_memo_starts_zeroed(self):
        s = contrived_worst_case(10)
        table = ExecutionContext().result_memo(Structure(0, ()), s)
        assert table.shape == (0, 5)
        table = ExecutionContext().result_memo(s, s)
        assert table.shape == (5, 5)
        assert not table.arcs.any()
        assert _mapped(table.arcs)


class TestManagerWorker:
    def test_driver_returns_the_shared_table(self):
        s = contrived_worst_case(30)
        ref = srna2(s, s)
        result = manager_worker(s, s, 3, backend="process")
        assert result.score == ref.score
        assert np.array_equal(result.memo.values, ref.memo.values)
        assert _mapped(result.memo.arcs)

    def test_manager_returns_no_table(self):
        s = contrived_worst_case(30)
        context = ExecutionContext()
        out = context.result_memo(s, s)
        results = context.launch(
            lambda comm: manager_worker_rank(comm, s, s, out=out),
            n_ranks=2, backend="process",
        )
        assert all(result.memo is None for result in results)
        assert np.array_equal(out.arcs, srna2(s, s).memo.arcs)

    def test_solver_branch(self):
        s = contrived_worst_case(30)
        result = solve(s, s, algorithm="managerworker", n_ranks=2, backend="process")
        assert np.array_equal(result.memo.values, srna2(s, s).memo.values)
        assert _mapped(result.memo.arcs)


def test_solver_prna_branch(pair):
    s1, s2, ref = pair
    result = solve(s1, s2, algorithm="prna", n_ranks=2, backend="process")
    assert np.array_equal(result.memo.values, ref.memo.values)
    assert _mapped(result.memo.arcs)
