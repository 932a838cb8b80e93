"""SanitizedCommunicator mechanics: transparency, stamping, memo guard."""

import numpy as np

from repro.check.sanitizer import SanitizedCommunicator, SanitizedMemoTable
from repro.core.memo import DenseMemoTable
from repro.mpi.communicator import ReduceOp, SelfCommunicator
from repro.mpi.inprocess import run_threaded


def sanitized(comm, timeout=5.0):
    return SanitizedCommunicator(comm, timeout=timeout)


class TestTransparentCollectives:
    def test_bcast_allreduce_gather(self):
        def fn(comm):
            c = sanitized(comm)
            value = c.bcast(comm.rank * 10 + 7, root=1)
            total = c.allreduce(1, ReduceOp.SUM)
            gathered = c.allgather(c.rank)
            c.barrier()
            return value, total, gathered

        out = run_threaded(fn, 3)
        assert [o[0] for o in out] == [17, 17, 17]
        assert [o[1] for o in out] == [3, 3, 3]
        assert [o[2] for o in out] == [[0, 1, 2]] * 3

    def test_Allreduce_matches_plain(self):
        def fn(comm):
            c = sanitized(comm)
            buf = np.full(5, c.rank, dtype=np.int64)
            c.Allreduce(buf, ReduceOp.MAX)
            return buf.tolist()

        out = run_threaded(fn, 3)
        assert out == [[2] * 5] * 3

    def test_point_to_point(self):
        def fn(comm):
            c = sanitized(comm)
            if c.rank == 0:
                c.send("ping", 1, tag=4)
                return c.recv(1, tag=5)
            received = c.recv(0, tag=4)
            c.send(received + "/pong", 0, tag=5)
            return received

        out = run_threaded(fn, 2)
        assert out == ["ping/pong", "ping"]

    def test_seq_numbers_advance(self):
        def fn(comm):
            c = sanitized(comm)
            c.barrier()
            c.bcast(1, root=0)
            c.allreduce(2)
            return c._seq

        assert run_threaded(fn, 2) == [3, 3]

    def test_single_rank_skips_rendezvous(self):
        c = sanitized(SelfCommunicator())
        assert c.bcast(42) == 42
        assert c.allreduce(5) == 5
        c.barrier()

    def test_stats_shared_with_inner(self):
        def fn(comm):
            stats = comm.enable_stats()
            c = sanitized(comm)
            c.barrier()
            assert c.stats is stats
            return stats.barriers, stats.sanitizer_checks

        out = run_threaded(fn, 2)
        assert all(barriers == 1 for barriers, _ in out)
        assert all(checks >= 1 for _, checks in out)

    def test_rank_size_properties(self):
        def fn(comm):
            c = sanitized(comm)
            return c.rank, c.size

        assert run_threaded(fn, 2) == [(0, 2), (1, 2)]


class TestMemoGuard:
    def test_guarded_table_delegates(self):
        c = sanitized(SelfCommunicator())
        table = DenseMemoTable(4, 4)
        memo = c.guard_memo(table, owned_columns=[1, 2])
        assert isinstance(memo, SanitizedMemoTable)
        memo.store(1, 2, 9)
        assert memo.lookup(1, 2) == 9
        assert memo.values is table.values
        assert memo.shape == (4, 4)
        assert memo.row(1).tolist() == table.row(1).tolist()
        assert memo.nbytes() > table.nbytes()

    def test_owned_writes_pass(self):
        def fn(comm):
            c = sanitized(comm)
            table = DenseMemoTable(4, 4)
            owned = [0, 1] if c.rank == 0 else [2, 3]
            memo = c.guard_memo(table, owned_columns=owned)
            row = memo.values[1]
            for col in owned:
                row[col] = c.rank + 1
            c.Allreduce(row, ReduceOp.MAX)
            return row.tolist()

        out = run_threaded(fn, 2)
        assert out[0] == out[1] == [1, 1, 2, 2]

    def test_shadow_refreshes_between_windows(self):
        # The same owned column may be rewritten in the next window
        # without tripping the guard.
        def fn(comm):
            c = sanitized(comm)
            table = DenseMemoTable(4, 4)
            owned = [1] if c.rank == 0 else [2]
            memo = c.guard_memo(table, owned_columns=owned)
            for round_no in (1, 2):
                row = memo.values[round_no]
                row[owned[0]] = round_no
                c.Allreduce(row, ReduceOp.MAX)
            return memo.values[1].tolist(), memo.values[2].tolist()

        out = run_threaded(fn, 2)
        assert out[0] == out[1]

    def test_unguarded_buffer_unaffected(self):
        def fn(comm):
            c = sanitized(comm)
            table = DenseMemoTable(4, 4)
            c.guard_memo(table, owned_columns=[c.rank])
            other = np.full(3, c.rank, dtype=np.int64)
            c.Allreduce(other, ReduceOp.MAX)
            return other.tolist()

        assert run_threaded(fn, 2) == [[1, 1, 1]] * 2
