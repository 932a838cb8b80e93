"""Process-backed communicator (multiprocessing pipes).

Kept deliberately small per test — each world forks real OS processes.
"""

import os
import signal

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.mpi.communicator import ReduceOp
from repro.mpi.process import run_multiprocess


def _collectives_probe(comm):
    broadcast = comm.bcast(f"root-says-{comm.rank}", root=0)
    total = comm.allreduce(comm.rank + 1, ReduceOp.SUM)
    gathered = comm.allgather(comm.rank)
    buf = np.full(5, comm.rank, dtype=np.int64)
    comm.Allreduce(buf, ReduceOp.MAX)
    comm.barrier()
    return (broadcast, total, gathered, buf.tolist())


def _ring_probe(comm):
    comm.send(comm.rank * 100, (comm.rank + 1) % comm.size, tag=3)
    return comm.recv((comm.rank - 1) % comm.size, tag=3)


def _failing_rank(comm):
    if comm.rank == 1:
        raise RuntimeError("deliberate failure in child")
    return comm.rank


def _killed_rank(comm):
    if comm.rank == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return comm.rank


def _clocked(comm):
    comm.charge_compute(1.0 + comm.rank)
    comm.barrier()
    return None


class TestRunMultiprocess:
    def test_size_one(self):
        assert run_multiprocess(lambda comm: comm.rank, 1) == [0]

    def test_invalid_size(self):
        with pytest.raises(CommunicatorError):
            run_multiprocess(lambda comm: None, 0)

    @pytest.mark.parametrize("size", [2, 3])
    def test_collectives(self, size):
        out = run_multiprocess(_collectives_probe, size)
        expected_total = sum(range(1, size + 1))
        for rank, (broadcast, total, gathered, buf) in enumerate(out):
            assert broadcast == "root-says-0"
            assert total == expected_total
            assert gathered == list(range(size))
            assert buf == [size - 1] * 5
            del rank

    def test_point_to_point_ring(self):
        out = run_multiprocess(_ring_probe, 3)
        assert out == [200, 0, 100]

    def test_child_failure_reported(self):
        with pytest.raises(CommunicatorError, match="deliberate failure"):
            run_multiprocess(_failing_rank, 2)

    def test_killed_rank_is_a_typed_error(self):
        with pytest.raises(CommunicatorError, match=r"rank 1 .*SIGKILL"):
            run_multiprocess(_killed_rank, 2)

    def test_closure_arguments_work_with_fork(self):
        payload = {"key": [1, 2, 3]}

        def fn(comm, data):
            return data["key"][comm.rank]

        assert run_multiprocess(fn, 2, args=(payload,)) == [1, 2]

    def test_with_clocks(self):
        from repro.mpi.costmodel import CostModel

        out = run_multiprocess(
            _clocked, 2, cost_model=CostModel(), with_clocks=True
        )
        times = [t for _, t in out]
        # Clocks sync at the final barrier: both at >= max charge.
        assert all(t >= 2.0 for t in times)
