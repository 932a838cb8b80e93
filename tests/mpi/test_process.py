"""Process-backed communicator (multiprocessing pipes).

Kept deliberately small per test — each world forks real OS processes.
"""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.core.srna2 import srna2
from repro.errors import CommunicatorError
from repro.mpi.communicator import ReduceOp
from repro.mpi.process import run_multiprocess
from repro.parallel.prna import prna, prna_rank
from repro.runtime.context import ExecutionContext
from repro.structure.generators import contrived_worst_case, rna_like_structure


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


def _hung_ranks(comm):
    if comm.rank != 0:
        time.sleep(60)
    return comm.rank


def _dev_shm() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux hosts
        return set()


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

    def test_hung_ranks_time_out_under_one_deadline(self):
        timeout = 1.0
        start = time.monotonic()
        with pytest.raises(CommunicatorError, match=r"rank 1 timed out"):
            run_multiprocess(_hung_ranks, 3, timeout=timeout)
        assert time.monotonic() - start < timeout + 5.0
        # The hung ranks were terminated and reaped, not left running.
        assert multiprocessing.active_children() == []

    def test_peer_failure_reaches_a_blocked_rank(self):
        # Rank 0 blocks on a recv from rank 1, which raises: rank 0 must
        # see the closed pipe at once, and rank 1's error is the one named.
        def fn(comm):
            if comm.rank == 1:
                raise RuntimeError("deliberate failure in child")
            return comm.recv(1)

        start = time.monotonic()
        with pytest.raises(CommunicatorError, match=r"rank 1 failed"):
            run_multiprocess(fn, 2, timeout=60.0)
        assert time.monotonic() - start < 30.0

    def test_closure_arguments_work_with_fork(self):
        payload = {"key": [1, 2, 3]}

        def fn(comm, data):
            return data["key"][comm.rank]

        assert run_multiprocess(fn, 2, args=(payload,)) == [1, 2]

    def test_with_clocks(self):
        from repro.mpi.costmodel import CostModel

        out = run_multiprocess(_clocked, 2, cost_model=CostModel())
        times = [t for _, t in out]
        # Clocks sync at the final barrier: both at >= max charge.
        assert all(t >= 2.0 for t in times)


#: (op, expected) for three ranks contributing their rank number.
REDUCTIONS = [(ReduceOp.MAX, 2), (ReduceOp.SUM, 0 + 1 + 2)]


class TestPipeAllreduce:
    """NumPy ``Allreduce`` runs recursive doubling over the pipes."""

    @pytest.mark.parametrize("op,expected", REDUCTIONS, ids=["max", "sum"])
    def test_plain_buffer(self, op, expected):
        def fn(comm):
            comm.enable_stats()
            plain = np.full(7, comm.rank, dtype=np.int64)
            comm.Allreduce(plain, op)
            return plain.copy(), comm.stats.as_dict()

        for plain, stats in run_multiprocess(fn, 3):
            assert (plain == expected).all()
            assert stats["allreduces"] == 1
            # Pickled-byte accounting: the payload's own size per call.
            assert stats["allreduce_bytes"] == 7 * 8

    @pytest.mark.parametrize("op,expected", REDUCTIONS, ids=["max", "sum"])
    def test_non_contiguous_view(self, op, expected):
        """A column view of a table reduces exactly, in place."""

        def fn(comm):
            comm.enable_stats()
            table = np.full((4, 4), comm.rank, dtype=np.int64)
            comm.Allreduce(table[:, 1], op)
            return table, comm.stats.as_dict()

        for rank, (table, stats) in enumerate(run_multiprocess(fn, 3)):
            assert (table[:, 1] == expected).all()
            # Columns outside the view stay private.
            assert (np.delete(table, 1, axis=1) == rank).all()
            assert stats["allreduce_bytes"] == 4 * 8


class TestPRNAOverPipes:
    """The paper's row synchronization on real processes."""

    def test_matches_sequential(self):
        s1 = rna_like_structure(60, 14, seed=1)
        s2 = rna_like_structure(64, 15, seed=2)
        reference = srna2(s1, s2, engine="vectorized")
        result = prna(s1, s2, 4, backend="process")
        assert result.score == reference.score
        assert np.array_equal(result.memo.values, reference.memo.values)

    def test_one_pickled_row_per_outer_arc(self):
        before = _dev_shm()
        s = contrived_worst_case(40)
        result = prna(s, s, 4, backend="process", collect_stats=True)
        stats = result.comm_stats
        assert stats["allreduces"] == s.n_arcs
        assert stats["allreduce_bytes"] == s.n_arcs * s.n_arcs * 8
        # Nothing of the run is left behind in /dev/shm.
        assert _dev_shm() - before == set()

    def test_shared_memory_keyword_is_rejected(self):
        s = contrived_worst_case(20)
        with pytest.raises(ValueError, match="shared_memory"):
            ExecutionContext().launch(
                lambda comm: prna_rank(comm, s, s, shared_memory=True),
                backend="self",
            )
