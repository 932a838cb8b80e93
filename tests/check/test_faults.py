"""Fault injection: each seeded SPMD bug must be caught with its rule ID.

Two tiers.  The classic per-module bugs:

1. rank-0-only barrier          -> SPMD101 (static), SAN101/SAN103 (runtime)
2. mismatched Allreduce dtypes  -> SAN102
3. out-of-partition shm write   -> SPMD003 (static), SAN202 (runtime)
4. swapped send/recv tags       -> SPMD201/SPMD202 (static), SAN104 (runtime)

And the seeded *protocol* bugs — each one invisible to a single-module
lexical pass, caught by the interprocedural verifier with its exact rule
ID, and cross-checked against the runtime sanitizer verdict the same
fault produces when actually executed (``TestProtocolFaults``):

P1. rank-gated collective behind a helper  -> SPMD101 / SAN101
P2. parity-dependent collective            -> SPMD101 / SAN101
P3. divergent reduction operator           -> SPMD102 / SAN102
P4. rank-dependent collective trip count   -> SPMD103 / SAN103
P5. swapped cross-module tag constants     -> SPMD201+SPMD202 / SAN104
P6. illegal executor publication order     -> SCHED001 / SAN203
P7. reversed dataflow publication order    -> SCHED001 / SAN205
P8. dataflow publication of a stray key    -> SAN204 (runtime only)

And the seeded *numeric* bugs for ``--dataflow`` — value-range, shape,
and cost faults the SPMD rules cannot see (``TestDataflowFaults``).
Where the fault is runnable its runtime consequence is demonstrated in
the same test: numpy integer overflow **wraps silently**, so the only
runtime symptom is a wrong answer (a parity break against the int64
ground truth), which is exactly why the static proof matters:

D1. int16 memo via tuple unpack + alias   -> DTYPE101 / silent wrap
D2. 17-bit pack into a uint16 word        -> DTYPE102 / bit 16 lost
D3. transposed memo ``np.ix_`` gather     -> SHAPE101 / wrong cells
D4. mis-declared cost-contract degree     -> COST001  (no runtime crash)
D5. ``np.take`` out= off-by-one           -> SHAPE103 / ValueError
D6. lossy cast of a bounded prefix sum    -> DTYPE103 / silent wrap
D7. scatter length mismatch               -> SHAPE103 / ValueError
"""

import ast
import textwrap

import numpy as np
import pytest

from repro.check import analyze_source
from repro.check.callgraph import ProjectIndex
from repro.check.costs import analyze_costs
from repro.check.dataflow import analyze_dataflow
from repro.check.protocol import analyze_protocol, check_declared_schedules
from repro.check.sanitizer import SanitizedCommunicator
from repro.core.memo import DenseMemoTable
from repro.errors import SanitizerError
from repro.mpi.communicator import ReduceOp
from repro.mpi.inprocess import run_threaded
from repro.runtime.registry import CostContract, ScheduleDeclaration


def sanitized(comm, timeout=2.0):
    return SanitizedCommunicator(comm, timeout=timeout)


class TestRankZeroOnlyBarrier:
    def test_static_detection(self):
        findings = analyze_source(
            textwrap.dedent(
                """
                def stage(comm):
                    if comm.rank == 0:
                        comm.barrier()
                """
            )
        )
        assert [f.rule for f in findings] == ["SPMD101"]

    def test_runtime_divergence(self):
        # Rank 1 skips the barrier and reaches the *next* collective; the
        # stamp rendezvous sees two different ops at the same seq.
        def fn(comm):
            c = sanitized(comm)
            if c.rank == 0:
                c.barrier()
            c.bcast(1, root=0)

        with pytest.raises(SanitizerError, match="SAN101"):
            run_threaded(fn, 2)

    def test_runtime_hang_becomes_timeout(self):
        # Rank 1 never issues any collective: rank 0's rendezvous times
        # out and names the missing rank instead of deadlocking.
        def fn(comm):
            c = sanitized(comm, timeout=0.5)
            if c.rank == 0:
                c.barrier()

        with pytest.raises(SanitizerError, match="SAN103.*rank\\(s\\) 1"):
            run_threaded(fn, 2)


class TestMismatchedAllreduceDtype:
    def test_runtime_detection(self):
        def fn(comm):
            c = sanitized(comm)
            dtype = np.int64 if c.rank == 0 else np.int32
            c.Allreduce(np.zeros(4, dtype=dtype))

        with pytest.raises(SanitizerError, match="SAN102.*dtype"):
            run_threaded(fn, 2)

    def test_mismatched_shape_also_caught(self):
        def fn(comm):
            c = sanitized(comm)
            c.Allreduce(np.zeros(4 + c.rank, dtype=np.int64))

        with pytest.raises(SanitizerError, match="SAN102.*shape"):
            run_threaded(fn, 2)

    def test_diagnostic_names_call_site(self):
        def fn(comm):
            c = sanitized(comm)
            dtype = np.int64 if c.rank == 0 else np.int32
            c.Allreduce(np.zeros(4, dtype=dtype))

        with pytest.raises(SanitizerError, match="test_faults"):
            run_threaded(fn, 2)


class TestOutOfPartitionWrite:
    def test_static_detection(self):
        # Substrate path: keeps the snippet out of ARCH001's scope so the
        # fault stays a pure SPMD003 case.
        findings = analyze_source(
            textwrap.dedent(
                """
                def stage(comm, j):
                    memo = DenseMemoTable.wrap(comm.allocate_shared((8, 8)))
                    memo.values[1, j] = 5
                """
            ),
            path="repro/mpi/snippet.py",
        )
        assert [f.rule for f in findings] == ["SPMD003"]

    def test_runtime_detection(self):
        def fn(comm):
            c = sanitized(comm)
            table = DenseMemoTable(4, 4)
            owned = [0, 1] if c.rank == 0 else [2, 3]
            memo = c.guard_memo(table, owned_columns=owned)
            row = memo.values[1]
            row[owned[0]] = 7
            if c.rank == 1:
                row[0] = 9  # rank 0's column
            c.Allreduce(row)

        with pytest.raises(SanitizerError, match="SAN202.*rank 1"):
            run_threaded(fn, 2)

    def test_write_write_overlap(self):
        # Both ranks write the same cell with *different* values — caught
        # even without ownership metadata.
        def fn(comm):
            c = sanitized(comm)
            table = DenseMemoTable(4, 4)
            memo = c.guard_memo(table)
            row = memo.values[1]
            row[2] = 10 + c.rank
            c.Allreduce(row)

        with pytest.raises(SanitizerError, match="SAN201"):
            run_threaded(fn, 2)

    def test_unordered_read_write(self):
        def fn(comm):
            c = sanitized(comm)
            table = DenseMemoTable(4, 4)
            owned = [1] if c.rank == 0 else [2]
            memo = c.guard_memo(table, owned_columns=owned)
            row = memo.values[1]
            row[owned[0]] = 5
            if c.rank == 0:
                memo.lookup(1, 2)  # rank 1 is writing column 2 right now
            c.Allreduce(row)

        with pytest.raises(SanitizerError, match="SAN203"):
            run_threaded(fn, 2)


class TestSwappedTags:
    def test_static_detection(self):
        findings = analyze_source(
            textwrap.dedent(
                """
                def stage(comm):
                    if comm.rank == 0:
                        comm.send("a", 1, tag=3)
                        return comm.recv(1, tag=5)
                    comm.send("b", 0, tag=4)
                    return comm.recv(0, tag=3)
                """
            )
        )
        assert {"SPMD201", "SPMD202"} <= {f.rule for f in findings}
        flagged = [f for f in findings if f.rule == "SPMD201"]
        assert any("tag 4" in f.message for f in flagged)

    def test_runtime_detection(self):
        def fn(comm):
            c = sanitized(comm, timeout=0.5)
            if c.rank == 0:
                c.send("a", 1, tag=3)
                return c.recv(1, tag=5)
            c.send("b", 0, tag=4)  # bug: rank 0 expects tag 5
            return c.recv(0, tag=3)

        with pytest.raises(SanitizerError, match="SAN104.*tag=5"):
            run_threaded(fn, 2)


# ----------------------------------------------------------------------
# Seeded protocol faults (interprocedural families, ``--protocol``)
# ----------------------------------------------------------------------
def proto(source: str, path: str = "src/fault/mod.py"):
    tree = ast.parse(textwrap.dedent(source), filename=path)
    return analyze_protocol({path: tree})


def proto_modules(**modules: str):
    trees = {}
    for name, source in modules.items():
        path = "src/" + name.replace("_", "/") + ".py"
        trees[path] = ast.parse(textwrap.dedent(source), filename=path)
    return analyze_protocol(trees)


class TestProtocolFaults:
    """Each seeded bug: static rule ID + the runtime verdict it causes.

    The static snippets are deliberately shaped so the module-local
    rules (SPMD001-004) do NOT fire — the collective is hidden behind a
    helper call, a constant import, or an executor declaration — proving
    the interprocedural pass is what catches them.
    """

    # -- P1: manager does an allreduce the worker helper never issues --
    def test_p1_gated_helper_collective_static(self):
        findings = proto(
            """
            def run(comm, xs):
                if comm.rank == 0:
                    return _manager(comm, xs)
                return _worker(comm, xs)

            def _manager(comm, xs):
                total = comm.allreduce(len(xs))
                comm.barrier()
                return total

            def _worker(comm, xs):
                comm.barrier()
                return None
            """
        )
        assert "SPMD101" in {f.rule for f in findings}

    def test_p1_runtime_verdict(self):
        def fn(comm):
            c = sanitized(comm)
            if c.rank == 0:
                c.allreduce(1)
            c.barrier()

        with pytest.raises(SanitizerError, match="SAN101"):
            run_threaded(fn, 2)

    # -- P2: collective guarded by rank parity (undecidable branch) --
    def test_p2_parity_branch_static(self):
        findings = proto(
            """
            def step(comm, xs):
                if comm.rank % 2 == 0:
                    comm.barrier()
                return comm.bcast(xs, root=0)
            """
        )
        assert "SPMD101" in {f.rule for f in findings}

    def test_p2_runtime_verdict(self):
        def fn(comm):
            c = sanitized(comm)
            if c.rank % 2 == 0:
                c.barrier()
            return c.bcast(1, root=0)

        with pytest.raises(SanitizerError, match="SAN101"):
            run_threaded(fn, 2)

    # -- P3: ranks reduce with different operators --
    def test_p3_divergent_reduce_op_static(self):
        findings = proto(
            """
            def reduce_row(comm, row):
                op = MAX if comm.rank == 0 else SUM
                comm.Allreduce(row, op)
            """
        )
        assert "SPMD102" in {f.rule for f in findings}

    def test_p3_runtime_verdict(self):
        def fn(comm):
            c = sanitized(comm)
            op = ReduceOp.MAX if c.rank == 0 else ReduceOp.SUM
            return c.allreduce(3, op=op)

        with pytest.raises(SanitizerError, match="SAN102"):
            run_threaded(fn, 2)

    # -- P4: collective trip count depends on the rank --
    def test_p4_rank_dependent_loop_static(self):
        findings = proto(
            """
            def drain(comm):
                for _ in range(comm.rank + 1):
                    comm.barrier()
            """
        )
        assert "SPMD103" in {f.rule for f in findings}

    def test_p4_runtime_verdict(self):
        def fn(comm):
            c = sanitized(comm, timeout=0.5)
            for _ in range(c.rank + 1):
                c.barrier()

        # Rank 0 leaves after one barrier; rank 1's second barrier can
        # only time out naming the departed rank.
        with pytest.raises(SanitizerError, match="SAN103"):
            run_threaded(fn, 2)

    # -- P5: manager and worker disagree on a tag, across modules --
    def test_p5_swapped_cross_module_tags_static(self):
        findings = proto_modules(
            fault_tags="""
            TAG_WORK = 3
            TAG_DONE = 5
            """,
            fault_manager="""
            from fault.tags import TAG_DONE, TAG_WORK

            def manager(comm, xs):
                comm.send(xs, 1, tag=TAG_WORK)
                return comm.recv(1, tag=TAG_DONE)
            """,
            fault_worker="""
            from fault.tags import TAG_WORK

            def worker(comm):
                item = comm.recv(0, tag=TAG_WORK)
                comm.send(item, 0, tag=4)
            """,
        )
        rules = {f.rule for f in findings}
        assert "SPMD201" in rules  # send tag 4 has no receiver
        assert "SPMD202" in rules  # recv tag 5 has no sender

    def test_p5_runtime_verdict(self):
        def fn(comm):
            c = sanitized(comm, timeout=0.5)
            if c.rank == 0:
                c.send("work", 1, tag=3)
                return c.recv(1, tag=5)
            item = c.recv(0, tag=3)
            c.send(item, 0, tag=4)  # bug: the manager expects tag 5

        with pytest.raises(SanitizerError, match="SAN104.*tag=5"):
            run_threaded(fn, 2)

    # -- P6: executor declares a publication order that violates d1/d2 --
    def test_p6_illegal_schedule_static(self):
        # A known executor/sync pair whose declared order is reversed:
        # the legality check finds a dependency published after its
        # reader on a concrete sample structure.
        bad = ScheduleDeclaration(
            key="prna:row", entry="repro.parallel.prna.prna_rank",
            publishes="row", order="reverse-right-endpoint",
        )
        verdicts = {
            decl.key: verdict
            for decl, verdict, _ in check_declared_schedules([bad])
        }
        assert verdicts["prna:row"] == "illegal-order"

    def test_p6_illegal_schedule_static_rule_id(self):
        bad = ScheduleDeclaration(
            key="prna:row", entry="repro.parallel.prna.prna_rank",
            publishes="row", order="reverse-right-endpoint",
        )
        findings = analyze_protocol({}, declarations=[bad])
        assert [f.rule for f in findings] == ["SCHED001"]

    def test_p6_runtime_verdict(self):
        # The runtime shadow of an illegal order: a reader consumes a
        # cell before the publication that should precede it, which the
        # memo guard reports as an unordered read/write pair.
        def fn(comm):
            c = sanitized(comm)
            table = DenseMemoTable(4, 4)
            owned = [1] if c.rank == 0 else [2]
            memo = c.guard_memo(table, owned_columns=owned)
            row = memo.values[1]
            if c.rank == 0:
                memo.lookup(1, 2)  # dependency not yet published
            row[owned[0]] = 5
            c.Allreduce(row)

        with pytest.raises(SanitizerError, match="SAN203"):
            run_threaded(fn, 2)

    # -- P7: the dataflow executor publishes in *reversed* arc order --
    def test_p7_reversed_dataflow_order_static(self):
        # The registry-checked declaration with its order flipped: the
        # legality proof finds a dependency published after its reader
        # on a concrete sample structure before any code runs.
        bad = ScheduleDeclaration(
            key="prna:dataflow",
            entry="repro.parallel.dataflow.dataflow_stage_one",
            publishes="cells", order="reverse-right-endpoint",
        )
        findings = analyze_protocol({}, declarations=[bad])
        assert [f.rule for f in findings] == ["SCHED001"]

    def test_p7_runtime_verdict(self):
        # The same fault executed: a rank that iterates its publication
        # loop backwards trips the sanitizer's local order check at the
        # first arc whose dependencies have not been published yet —
        # before any consumer can read the stale cell.
        from repro.structure.dotbracket import from_dotbracket

        s1 = from_dotbracket("((()))")

        def fn(comm):
            c = sanitized(comm)
            c.declare_publication_schedule(
                row_of_arc=s1.lefts + 1,
                dep_lo=s1.inner_ranges[:, 0],
                dep_hi=s1.inner_ranges[:, 1],
                expected_installs=1,
            )
            row = np.zeros(4, dtype=np.int64)
            for a in range(s1.n_arcs - 1, -1, -1):  # bug: reversed
                c.Publish(("row", a), row, 1 - c.rank)

        with pytest.raises(SanitizerError, match="SAN205"):
            run_threaded(fn, 2)

    def test_p7_forward_order_is_silent(self):
        # The legal counterpart: right-endpoint (ascending arc) order
        # satisfies every dependency check and completes cleanly.
        from repro.structure.dotbracket import from_dotbracket

        s1 = from_dotbracket("((()))")

        def fn(comm):
            c = sanitized(comm)
            c.declare_publication_schedule(
                row_of_arc=s1.lefts + 1,
                dep_lo=s1.inner_ranges[:, 0],
                dep_hi=s1.inner_ranges[:, 1],
                expected_installs=1,
            )
            row = np.zeros(4, dtype=np.int64)
            for a in range(s1.n_arcs):
                c.Publish(("row", a), row, 1 - c.rank)
            got = c.Await([("row", a) for a in range(s1.n_arcs)], 1 - c.rank)
            return len(got)

        assert run_threaded(fn, 2) == [s1.n_arcs, s1.n_arcs]

    # -- P8: publication of a key outside the declared schedule --
    def test_p8_stray_publication_key(self):
        def fn(comm):
            c = sanitized(comm)
            c.declare_publication_schedule(
                row_of_arc=np.array([1]),
                dep_lo=np.array([0]),
                dep_hi=np.array([0]),
            )
            c.Publish(("bogus", 7), np.zeros(2), 1 - c.rank)

        with pytest.raises(SanitizerError, match="SAN204"):
            run_threaded(fn, 2)

    def test_p8_foreign_consolidation_block(self):
        def fn(comm):
            c = sanitized(comm)
            c.declare_publication_schedule(
                row_of_arc=np.array([1]),
                dep_lo=np.array([0]),
                dep_hi=np.array([0]),
            )
            # Claims to consolidate the *peer's* owned block.
            c.Publish(("final", 1 - c.rank), np.zeros(2), 1 - c.rank)

        with pytest.raises(SanitizerError, match="SAN204"):
            run_threaded(fn, 2)

    # -- sanity: the legal counterpart of every fault stays silent --
    def test_clean_counterparts_produce_no_findings(self):
        findings = proto(
            """
            def run(comm, xs):
                if comm.rank == 0:
                    _prepare(xs)
                total = comm.allreduce(len(xs))
                comm.barrier()
                return total

            def _prepare(xs):
                xs.sort()
            """
        )
        assert findings == []
        good = ScheduleDeclaration(
            key="prna:row", entry="repro.parallel.prna.prna_rank",
            publishes="row", order="right-endpoint",
        )
        verdicts = [v for _, v, _ in check_declared_schedules([good])]
        assert verdicts == ["ok"]


# ----------------------------------------------------------------------
# Seeded numeric dataflow faults (interval/shape/cost, ``--dataflow``)
# ----------------------------------------------------------------------
def flow(source: str, path: str = "src/fault/core/slices.py"):
    tree = ast.parse(textwrap.dedent(source), filename=path)
    return analyze_dataflow({path: tree})


class TestDataflowFaults:
    """Each seeded numeric bug: static rule ID + its runtime consequence.

    The runtime halves run the *same arithmetic* the static snippet
    describes, at concrete sizes small enough for the test suite but
    large enough to overflow the narrow dtype.  Where numpy raises
    (shape mismatches) we assert the exception; where it silently wraps
    (integer overflow) we assert the parity break against int64 — the
    failure mode that makes DTYPE101/102/103 worth proving statically.
    """

    # -- D1: int16 memo reaches the lift sink via tuple unpack + alias --
    def test_d1_narrow_memo_static(self):
        source = """
            import numpy as np

            def tabulate_slice_batched(values):
                return values

            def driver(n):
                memo, scratch = np.zeros((n, n), dtype=np.int16), np.zeros(4)
                table = memo
                return tabulate_slice_batched(table)
            """
        assert "DTYPE101" in {f.rule for f in flow(source)}
        # The lexical form (with the tuple-unpack false negative fixed)
        # reaches the same verdict without running the interpreter.
        lexical = analyze_source(textwrap.dedent(source))
        assert "DTYPE101" in {f.rule for f in lexical}

    def test_d1_runtime_parity_break(self):
        # A miniature of the segmented lift: seg_id * stride + value with
        # stride = vmax * n_rows + 1 = 25 * 40 + 1.  39 * 1001 overflows
        # int16 and numpy wraps without a peep.
        stride = 1001
        seg = np.arange(40)
        vals = seg % 7
        wide = seg.astype(np.int64) * stride + vals
        narrow = seg.astype(np.int16) * np.int16(stride) + vals.astype(
            np.int16
        )
        assert wide.max() == 39 * stride + 4
        assert not np.array_equal(wide, narrow.astype(np.int64))
        assert narrow.max() < wide.max()  # the wrapped lift loses the max

    # -- D2: packing 17 flag bits into a 16-bit word --
    def test_d2_packed_word_width_static(self):
        findings = flow(
            """
            import numpy as np

            def pack_flags(n):
                packed = np.zeros(n, dtype=np.uint16)
                ones = np.ones(n, dtype=np.uint16)
                for k in range(17):
                    packed |= ones << k
                return packed
            """
        )
        assert [f.rule for f in findings] == ["DTYPE102"]

    def test_d2_runtime_bit_sixteen_lost(self):
        wide = np.left_shift(np.ones(17, dtype=np.int64), np.arange(17))
        narrow = wide.astype(np.uint16)
        assert wide[16] == 1 << 16
        assert narrow[16] == 0  # wrapped: the 17th flag silently vanishes
        assert not np.array_equal(wide, narrow.astype(np.int64))

    # -- D3: memo gathered with the axes transposed --
    def test_d3_transposed_gather_static(self):
        findings = flow(
            """
            import numpy as np

            def tabulate_gather(memo_values, k1s, k2s):
                return memo_values[np.ix_(k2s, k1s)]
            """
        )
        assert [f.rule for f in findings] == ["SHAPE101"]

    def test_d3_runtime_wrong_cells(self):
        # Both gathers are the same shape — only the *values* betray the
        # transposition, which is why length reasoning can't catch it and
        # SHAPE101 tracks side provenance instead.
        memo = np.arange(16).reshape(4, 4)
        k1s, k2s = np.array([0, 1]), np.array([2, 3])
        good = memo[np.ix_(k1s, k2s)]
        bad = memo[np.ix_(k2s, k1s)]
        assert good.shape == bad.shape
        assert not np.array_equal(good, bad)

    # -- D4: cost contract declares the wrong polynomial degree --
    def test_d4_misdeclared_degree_static(self):
        # No runtime half: a mispriced kernel runs fine, it just makes
        # the Planner's rationale a lie — only the audit catches it.
        path = "src/fault/kern.py"
        tree = ast.parse(
            textwrap.dedent(
                """
                import numpy as np

                def kernel(n):
                    out = np.zeros((n, n))
                    return out + 1
                """
            ),
            filename=path,
        )
        bad = CostContract(key="kernel:k", entry="fault.kern.kernel",
                           degree=1, polynomial="n")
        findings = analyze_costs(ProjectIndex({path: tree}),
                                 declarations=[bad])
        assert [f.rule for f in findings] == ["COST001"]

    # -- D5: gather with a preallocated out= one element too long --
    def test_d5_take_out_mismatch_static(self):
        findings = flow(
            """
            import numpy as np

            def lift_cols(src, idx_len):
                out = np.empty(idx_len + 1, dtype=np.int64)
                rows = np.empty(idx_len, dtype=np.int64)
                np.take(src, rows, out=out)
                return out
            """
        )
        assert [f.rule for f in findings] == ["SHAPE103"]

    def test_d5_runtime_raises(self):
        src = np.arange(8)
        rows = np.arange(5)
        out = np.empty(6, dtype=src.dtype)
        with pytest.raises(ValueError):
            np.take(src, rows, out=out)

    # -- D6: bounded prefix sum cast down to int16 --
    def test_d6_lossy_prefix_cast_static(self):
        findings = flow(
            """
            import numpy as np

            def lift_prefix(n):
                gains = np.ones(n, dtype=np.int64)
                total = np.cumsum(gains)
                return total.astype(np.int16)
            """
        )
        assert [f.rule for f in findings] == ["DTYPE103"]

    def test_d6_runtime_parity_break(self):
        # 40000 unit gains: the true prefix sum tops out at 40000, the
        # int16 copy wraps past 32767 — silently.
        prefix = np.cumsum(np.ones(40000, dtype=np.int64))
        narrow = prefix.astype(np.int16)
        assert prefix[-1] == 40000
        assert narrow[-1] != 40000
        assert not np.array_equal(prefix, narrow.astype(np.int64))

    # -- D7: scatter whose source is longer than its index --
    def test_d7_scatter_mismatch_static(self):
        findings = flow(
            """
            import numpy as np

            def lift_scatter(n):
                dest = np.zeros(n + 4)
                idx = np.arange(n)
                src = np.zeros(n + 1)
                dest[idx] = src
                return dest
            """
        )
        assert [f.rule for f in findings] == ["SHAPE103"]

    def test_d7_runtime_raises(self):
        dest = np.zeros(10)
        idx = np.arange(6)
        src = np.zeros(7)
        with pytest.raises(ValueError):
            dest[idx] = src

    # -- sanity: the corrected counterparts are silent --
    def test_clean_counterparts_produce_no_findings(self):
        assert flow(
            """
            import numpy as np

            def tabulate_slice_batched(values):
                return values

            def driver(n):
                memo, scratch = np.zeros((n, n), dtype=np.int64), np.zeros(4)
                table = memo
                return tabulate_slice_batched(table)
            """
        ) == []
        assert flow(
            """
            import numpy as np

            def tabulate_gather(memo_values, k1s, k2s):
                return memo_values[np.ix_(k1s, k2s)]
            """
        ) == []
