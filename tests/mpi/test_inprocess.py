"""Thread-backed communicator: collectives, p2p, failure handling."""

import numpy as np
import pytest

from repro.errors import CollectiveMismatchError, CommunicatorError
from repro.mpi.communicator import ReduceOp, SelfCommunicator
from repro.mpi.costmodel import ClusterSpec, CostModel
from repro.mpi.inprocess import run_threaded


class TestRunThreaded:
    def test_size_one(self):
        assert run_threaded(lambda comm: comm.rank, 1) == [0]

    def test_invalid_size(self):
        with pytest.raises(CommunicatorError):
            run_threaded(lambda comm: None, 0)

    def test_results_ordered_by_rank(self):
        out = run_threaded(lambda comm: comm.rank * 10, 5)
        assert out == [0, 10, 20, 30, 40]

    def test_exception_propagates(self):
        def boom(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 exploded")
            comm.barrier()

        with pytest.raises(ValueError, match="rank 1 exploded"):
            run_threaded(boom, 3)

    def test_args_forwarded(self):
        out = run_threaded(lambda comm, a, b: a + b + comm.rank, 2, args=(10, 5))
        assert out == [15, 16]


class TestCollectives:
    @pytest.mark.parametrize("size", [1, 2, 3, 7])
    def test_bcast(self, size):
        def fn(comm):
            return comm.bcast({"v": comm.rank}, root=size - 1)

        assert run_threaded(fn, size) == [{"v": size - 1}] * size

    def test_bcast_bad_root(self):
        with pytest.raises(CommunicatorError, match="root"):
            run_threaded(lambda comm: comm.bcast(1, root=9), 2)

    def test_allgather(self):
        out = run_threaded(lambda comm: comm.allgather(comm.rank), 4)
        assert out == [[0, 1, 2, 3]] * 4

    @pytest.mark.parametrize("op,expected", [
        (ReduceOp.SUM, 0 + 1 + 2 + 3),
        (ReduceOp.MAX, 3),
    ])
    def test_allreduce_scalar(self, op, expected):
        out = run_threaded(lambda comm: comm.allreduce(comm.rank, op), 4)
        assert out == [expected] * 4

    def test_Allreduce_buffer(self):
        def fn(comm):
            buf = np.full(6, comm.rank, dtype=np.int64)
            comm.Allreduce(buf, ReduceOp.MAX)
            return buf.tolist()

        assert run_threaded(fn, 4) == [[3] * 6] * 4

    def test_Allreduce_requires_array(self):
        def fn(comm):
            comm.Allreduce([1, 2, 3])  # type: ignore[arg-type]

        with pytest.raises(CommunicatorError, match="numpy array"):
            run_threaded(fn, 2)

    def test_Allreduce_shape_mismatch(self):
        def fn(comm):
            buf = np.zeros(comm.rank + 1, dtype=np.int64)
            comm.Allreduce(buf)

        with pytest.raises(CommunicatorError, match="mismatch"):
            run_threaded(fn, 2)

    def test_collective_name_mismatch_detected(self):
        def fn(comm):
            if comm.rank == 0:
                return comm.bcast("x", root=0)
            return comm.allgather("y")

        with pytest.raises(
            (CollectiveMismatchError, CommunicatorError)
        ):
            run_threaded(fn, 2)


class TestPointToPoint:
    def test_ring(self):
        def fn(comm):
            comm.send(f"from-{comm.rank}", (comm.rank + 1) % comm.size)
            return comm.recv((comm.rank - 1) % comm.size)

        out = run_threaded(fn, 4)
        assert out == ["from-3", "from-0", "from-1", "from-2"]

    def test_tags_demultiplex(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("a", 1, tag=1)
                comm.send("b", 1, tag=2)
                return None
            second = comm.recv(0, tag=2)
            first = comm.recv(0, tag=1)
            return (first, second)

        assert run_threaded(fn, 2)[1] == ("a", "b")

    def test_send_to_self_rejected(self):
        def fn(comm):
            comm.send("x", comm.rank)

        with pytest.raises(CommunicatorError, match="self"):
            run_threaded(fn, 2)

    def test_send_bad_dest(self):
        def fn(comm):
            comm.send("x", 99)

        with pytest.raises(CommunicatorError, match="dest"):
            run_threaded(fn, 2)


class TestVirtualTime:
    def test_clocks_sync_at_collectives(self):
        model = CostModel(ClusterSpec(sync_overhead=0.25, alpha=0.0, beta=0.0))

        def fn(comm):
            comm.charge_compute(float(comm.rank))
            comm.allreduce(1, ReduceOp.SUM)
            return None

        out = run_threaded(fn, 3, cost_model=model)
        times = [t for _, t in out]
        # max compute (rank 2 = 2.0s) + one modelled collective.
        assert all(t == pytest.approx(times[0]) for t in times)
        assert times[0] > 2.0

    def test_no_clock_no_simulated_time(self):
        def fn(comm):
            comm.charge_compute(5.0)  # silently ignored without a clock
            return comm.simulated_time

        assert run_threaded(fn, 2) == [None, None]


class TestSelfCommunicator:
    def test_trivial_collectives(self):
        comm = SelfCommunicator()
        assert comm.rank == 0 and comm.size == 1
        assert comm.bcast("v") == "v"
        assert comm.allgather(3) == [3]
        assert comm.allreduce(4, ReduceOp.MAX) == 4
        buf = np.array([1, 2])
        comm.Allreduce(buf)
        assert buf.tolist() == [1, 2]
        comm.barrier()

    def test_no_peers(self):
        comm = SelfCommunicator()
        with pytest.raises(CommunicatorError):
            comm.send(1, 0)
        with pytest.raises(CommunicatorError):
            comm.recv(0)
