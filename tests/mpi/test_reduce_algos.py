"""In-place Allreduce implementations against direct reductions.

``exchange`` is the rendezvous :meth:`Communicator.Allreduce` the thread
and self backends run; ``recursive_doubling`` is the point-to-point
algorithm the process backend runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.datatypes import ReduceOp
from repro.mpi.inprocess import run_threaded
from repro.mpi.reduce_algos import allreduce_recursive_doubling


def exchange_allreduce(comm, buffer, op=ReduceOp.MAX):
    comm.Allreduce(buffer, op)


ALGORITHMS = {
    "exchange": exchange_allreduce,
    "recursive_doubling": allreduce_recursive_doubling,
}


def _run(algo_name: str, size: int, op: ReduceOp, values: np.ndarray):
    """Run one algorithm on `size` ranks; rank r contributes values[r]."""

    def fn(comm):
        buf = values[comm.rank].copy()
        ALGORITHMS[algo_name](comm, buf, op)
        return buf

    return run_threaded(fn, size)


def _expected(op: ReduceOp, values: np.ndarray) -> np.ndarray:
    ufunc = {ReduceOp.MAX: np.maximum, ReduceOp.SUM: np.add}[op]
    return ufunc.reduce(values, axis=0)


class TestAlgorithms:
    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 8])
    @pytest.mark.parametrize("op", [ReduceOp.MAX, ReduceOp.SUM])
    def test_matches_direct_reduction(self, algo, size, op):
        rng = np.random.default_rng(size * 31 + len(algo))
        values = rng.integers(-50, 50, size=(size, 17)).astype(np.int64)
        results = _run(algo, size, op, values)
        expected = _expected(op, values)
        for result in results:
            assert np.array_equal(result, expected)

    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    def test_buffer_smaller_than_world(self, algo):
        values = np.arange(2 * 5, dtype=np.int64).reshape(5, 2)
        results = _run(algo, 5, ReduceOp.SUM, values)
        expected = values.sum(axis=0)
        for result in results:
            assert np.array_equal(result, expected)

    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    def test_two_dimensional_buffers(self, algo):
        values = np.arange(3 * 4 * 2, dtype=np.int64).reshape(3, 4, 2)
        results = _run(algo, 3, ReduceOp.MAX, values)
        expected = values.max(axis=0)
        for result in results:
            assert np.array_equal(result, expected)

    @given(
        size=st.integers(min_value=1, max_value=6),
        width=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_all_algorithms_agree(self, size, width, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(-100, 100, size=(size, width)).astype(np.int64)
        expected = _expected(ReduceOp.MAX, values)
        for algo in ALGORITHMS:
            for result in _run(algo, size, ReduceOp.MAX, values):
                assert np.array_equal(result, expected), algo


class TestSingleRankShortCircuit:
    @pytest.mark.parametrize("fn", list(ALGORITHMS.values()))
    def test_noop_on_self(self, fn):
        from repro.mpi.communicator import SelfCommunicator

        buf = np.array([5, 6], dtype=np.int64)
        fn(SelfCommunicator(), buf)
        assert buf.tolist() == [5, 6]
