"""Communication statistics — and the PRNA message-pattern verification."""

import numpy as np
import pytest

from repro.mpi.communicator import CommStats, ReduceOp
from repro.mpi.inprocess import run_threaded
from repro.parallel.prna import prna_rank
from repro.structure.generators import contrived_worst_case, rna_like_structure


class TestCounters:
    def test_disabled_by_default(self):
        def fn(comm):
            comm.barrier()
            return comm.stats

        assert run_threaded(fn, 2) == [None, None]

    def test_point_to_point_counts(self):
        def fn(comm):
            stats = comm.enable_stats()
            if comm.rank == 0:
                comm.send(np.zeros(10, dtype=np.int64), 1, tag=1)
                comm.send("hello", 1, tag=2)
            else:
                comm.recv(0, tag=1)
                comm.recv(0, tag=2)
            comm.barrier()
            return stats.as_dict()

        out = run_threaded(fn, 2)
        assert out[0]["sends"] == 2
        assert out[0]["bytes_sent"] >= 80  # the array alone is 80 bytes
        assert out[1]["recvs"] == 2
        assert all(o["barriers"] == 1 for o in out)

    def test_collective_counts(self):
        def fn(comm):
            stats = comm.enable_stats()
            comm.bcast("x", root=0)
            comm.allgather(comm.rank)
            buf = np.zeros(5, dtype=np.int64)
            comm.Allreduce(buf, ReduceOp.MAX)
            comm.Allreduce(buf, ReduceOp.MAX)
            return stats.as_dict()

        for counters in run_threaded(fn, 3):
            assert counters["bcasts"] == 1
            assert counters["exchanges"] == 1  # the allgather
            assert counters["allreduces"] == 2
            assert counters["allreduce_bytes"] == 2 * 5 * 8

    def test_enable_idempotent(self):
        def fn(comm):
            first = comm.enable_stats()
            second = comm.enable_stats()
            return first is second

        assert run_threaded(fn, 1) == [True]

    def test_repr(self):
        stats = CommStats()
        assert "sends=0" in repr(stats)


class TestPRNAPattern:
    """Verify §V-B: stage one performs exactly one Allreduce of an
    m-element memo row per outer arc, plus the final score broadcast —
    and nothing else."""

    @pytest.mark.parametrize(
        "structure",
        [contrived_worst_case(40), rna_like_structure(80, 18, seed=6)],
        ids=["worst-case", "rna-like"],
    )
    def test_row_sync_message_pattern(self, structure):
        def fn(comm):
            stats = comm.enable_stats()
            result = prna_rank(comm, structure, structure)
            return result.score, stats.as_dict()

        world = 3
        out = run_threaded(fn, world)
        m = structure.n_arcs  # one arc-table row: |A2| cells
        for score, counters in out:
            assert score == structure.n_arcs
            assert counters["allreduces"] == structure.n_arcs
            assert counters["allreduce_bytes"] == structure.n_arcs * m * 8
            assert counters["bcasts"] == 1  # the final score
            assert counters["sends"] == 0  # no point-to-point traffic
            assert counters["recvs"] == 0
