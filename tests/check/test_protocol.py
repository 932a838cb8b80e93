"""Unit tests for the rank-symbolic interprocedural protocol verifier.

Three layers, mirroring the module structure:

* the **lattice** — condition decisions against abstract ranks, schedule
  normalization and comparison;
* the **interpreter** — schedules extracted from synthetic SPMD programs
  and from the real shipped entry points (PRNA row-sync, manager/worker,
  the process backend's recursive-doubling Allreduce);
* the **rules** — SPMD1xx/SPMD2xx on schedules, SCHED0xx legality over
  :func:`repro.analysis.depgraph.arc_dependency_pairs`.
"""

import ast
import glob
import textwrap

import pytest

from repro.check.lattice import (
    RANK_OTHER,
    RANK_ZERO,
    AwaitEvent,
    CollectiveEvent,
    PublishEvent,
    collective_view,
    decide_condition,
    first_difference,
    iter_events,
)
from repro.check.callgraph import ProjectIndex
from repro.check.protocol import (
    analyze_protocol,
    check_declared_schedules,
    extract_schedules,
)
from repro.runtime.registry import ScheduleDeclaration


def proto(source: str, path: str = "src/snippet/mod.py"):
    tree = ast.parse(textwrap.dedent(source), filename=path)
    return analyze_protocol({path: tree})


def proto_modules(**modules: str):
    trees = {}
    for name, source in modules.items():
        path = "src/" + name.replace("_", "/") + ".py"
        trees[path] = ast.parse(textwrap.dedent(source), filename=path)
    return analyze_protocol(trees)


def rules_of(findings) -> list[str]:
    return [finding.rule for finding in findings]


# ----------------------------------------------------------------------
# Lattice
# ----------------------------------------------------------------------
class TestDecideCondition:
    def decide(self, text, rank, env=None):
        return decide_condition(ast.parse(text, mode="eval").body, rank,
                                env or {})

    def test_rank_eq_zero(self):
        assert self.decide("rank == 0", RANK_ZERO) is True
        assert self.decide("rank == 0", RANK_OTHER) is False

    def test_rank_neq_zero(self):
        assert self.decide("comm.rank != 0", RANK_ZERO) is False
        assert self.decide("comm.rank != 0", RANK_OTHER) is True

    def test_reversed_orientation(self):
        assert self.decide("0 == comm.rank", RANK_ZERO) is True
        assert self.decide("0 < rank", RANK_ZERO) is False
        assert self.decide("0 < rank", RANK_OTHER) is True

    def test_bare_truthiness(self):
        assert self.decide("comm.rank", RANK_ZERO) is False
        assert self.decide("comm.rank", RANK_OTHER) is True

    def test_not_and_boolops(self):
        assert self.decide("not rank", RANK_ZERO) is True
        assert self.decide("rank == 0 and ready", RANK_OTHER) is False
        assert self.decide("rank == 0 or ready", RANK_ZERO) is True

    def test_constant_bound_via_env(self):
        assert self.decide("rank == ROOT", RANK_ZERO, {"ROOT": 0}) is True

    def test_parity_is_undecidable(self):
        assert self.decide("rank % 2 == 0", RANK_ZERO) is None
        assert self.decide("rank % 2 == 0", RANK_OTHER) is None

    def test_nonzero_rank_vs_other_bounds(self):
        assert self.decide("rank >= 1", RANK_OTHER) is True
        assert self.decide("rank < 1", RANK_OTHER) is False
        assert self.decide("rank == 3", RANK_OTHER) is None


class TestScheduleComparison:
    def schedules_for(self, source):
        path = "src/snippet/mod.py"
        tree = ast.parse(textwrap.dedent(source), filename=path)
        index = ProjectIndex({path: tree})
        per_entry = extract_schedules(index)
        (per_rank,) = per_entry.values()
        return per_rank

    def test_uniform_branches_compare_equal(self):
        per_rank = self.schedules_for(
            """
            def run(comm, x, mode):
                if mode == "row":
                    comm.allreduce(x)
                else:
                    comm.allreduce(x)
                comm.bcast(x, root=0)
            """
        )
        a = collective_view(per_rank["R0"])
        b = collective_view(per_rank["Rk"])
        assert first_difference(a, b) is None

    def test_collective_view_drops_p2p(self):
        per_rank = self.schedules_for(
            """
            def run(comm, x):
                if comm.rank == 0:
                    comm.send(x, 1, tag=3)
                else:
                    x = comm.recv(0, tag=3)
                comm.barrier()
            """
        )
        view = collective_view(per_rank["R0"])
        names = [e.name for e in iter_events(view)
                 if isinstance(e, CollectiveEvent)]
        assert names == ["barrier"]

    def test_publish_await_modeled_in_tree(self):
        # Publish/Await are one-sided: they must appear in the schedule
        # tree (for the SCHED rules and tooling) but not in the
        # collective skeleton — producer/consumer asymmetry is legal.
        per_rank = self.schedules_for(
            """
            def run(comm, cells, deps):
                if comm.rank == 0:
                    got = comm.Await(deps, 1)
                else:
                    comm.Publish(("row", 3), cells, 0, urgent=True)
                    comm.flush_publications()
                comm.bcast(cells, root=0)
            """
        )
        zero = [type(e).__name__ for e in iter_events(per_rank["R0"])]
        other = [type(e).__name__ for e in iter_events(per_rank["Rk"])]
        assert "AwaitEvent" in zero and "PublishEvent" not in zero
        assert "PublishEvent" in other and "AwaitEvent" not in other
        # The asymmetry vanishes from the collective view on both ranks.
        a = collective_view(per_rank["R0"])
        b = collective_view(per_rank["Rk"])
        assert first_difference(a, b) is None

    def test_publish_metadata_resolved(self):
        per_rank = self.schedules_for(
            """
            def run(comm, cells, deps):
                comm.Publish(("row", 3), cells, 1)
                comm.Await(deps, 0)
            """
        )
        events = list(iter_events(per_rank["R0"]))
        publish = next(e for e in events if isinstance(e, PublishEvent))
        awaited = next(e for e in events if isinstance(e, AwaitEvent))
        assert publish.key == ("expr", "('row', 3)")
        assert publish.dest == ("const", 1)
        assert awaited.source == ("const", 0)

    def test_asymmetric_publish_is_not_divergence(self):
        # The full rule pipeline: an executor whose only cross-rank
        # asymmetry is publications/awaits produces zero findings.
        findings = proto(
            """
            def stage(comm, cells, deps):
                if comm.rank == 0:
                    comm.Await(deps, 1)
                else:
                    comm.Publish(("row", 0), cells, 0)
                comm.barrier()
            """
        )
        assert findings == []


# ----------------------------------------------------------------------
# Interpreter on the real tree
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def real_index():
    trees = {}
    for path in glob.glob("src/repro/**/*.py", recursive=True):
        with open(path, encoding="utf-8") as handle:
            trees[path] = ast.parse(handle.read(), filename=path)
    if not trees:
        pytest.skip("src/repro not present in this layout")
    return ProjectIndex(trees)


def collective_names(schedule):
    return [
        event.name
        for event in iter_events(collective_view(schedule))
        if isinstance(event, CollectiveEvent)
    ]


class TestRealTree:
    def test_prna_schedule_has_row_allreduces(self, real_index):
        per_entry = extract_schedules(real_index)
        per_rank = per_entry["repro.parallel.prna.prna_rank"]
        for rank in ("R0", "Rk"):
            names = collective_names(per_rank[rank])
            assert "Allreduce" in names
            assert "bcast" in names

    def test_manager_worker_skeletons_agree(self, real_index):
        per_entry = extract_schedules(real_index)
        per_rank = per_entry[
            "repro.parallel.managerworker.manager_worker_rank"
        ]
        # Rank 0 runs the manager, others the worker; both end in the
        # same single bcast — the rank-decided arms are equivalent.
        assert collective_names(per_rank["R0"]) == ["bcast"]
        assert collective_names(per_rank["Rk"]) == ["bcast"]

    def test_pipe_allreduce_inlines_recursive_doubling(self, real_index):
        per_entry = extract_schedules(real_index)
        per_rank = per_entry[
            "repro.mpi.process.ProcessCommunicator.Allreduce"
        ]
        # Recursive doubling is all point-to-point: every rank's schedule
        # must contain the inlined fold/exchange send/recv events, the
        # doubling-round loop, and no collectives (nothing to disagree on).
        for rank in ("R0", "Rk"):
            kinds = {type(e).__name__ for e in iter_events(per_rank[rank])}
            assert {"SendEvent", "RecvEvent", "Loop"} <= kinds
            assert collective_names(per_rank[rank]) == []

    def test_dataflow_schedule_publishes_and_awaits(self, real_index):
        per_entry = extract_schedules(real_index)
        per_rank = per_entry["repro.parallel.dataflow.dataflow_stage_one"]
        for rank in ("R0", "Rk"):
            kinds = {
                type(e).__name__ for e in iter_events(per_rank[rank])
            }
            assert "PublishEvent" in kinds
            assert "AwaitEvent" in kinds
            # Stage one is barrier-free by construction: the dataflow
            # executor's schedule must contain no collectives at all.
            assert collective_names(per_rank[rank]) == []

    def test_shipped_tree_is_protocol_clean(self, real_index):
        findings = analyze_protocol(
            {info.path: info.tree for info in real_index.modules.values()},
            index=real_index,
        )
        hard = [
            f for f in findings
            if f.rule.startswith(("SPMD1", "SCHED"))
        ]
        assert hard == [], [f.render() for f in hard]


# ----------------------------------------------------------------------
# SPMD1xx — collective agreement
# ----------------------------------------------------------------------
class TestCollectiveDivergence:
    def test_rank_gated_allreduce(self):
        findings = proto(
            """
            def run(comm, x):
                if comm.rank == 0:
                    comm.allreduce(x)
                return x
            """
        )
        assert rules_of(findings) == ["SPMD101"]

    def test_rank_gated_with_else_arm(self):
        findings = proto(
            """
            def run(comm, x):
                if comm.rank == 0:
                    comm.bcast(x, root=0)
                else:
                    comm.barrier()
            """
        )
        assert "SPMD101" in rules_of(findings)

    def test_undecidable_parity_branch(self):
        findings = proto(
            """
            def run(comm, x):
                if comm.rank % 2 == 0:
                    comm.barrier()
                return x
            """
        )
        assert rules_of(findings) == ["SPMD101"]

    def test_early_return_divergence(self):
        findings = proto(
            """
            def run(comm, x):
                if comm.rank != 0:
                    return x
                comm.barrier()
            """
        )
        assert rules_of(findings) == ["SPMD101"]

    def test_interprocedural_divergence(self):
        findings = proto(
            """
            def reduce_rows(comm, x):
                comm.allreduce(x)

            def run(comm, x):
                if comm.rank == 0:
                    reduce_rows(comm, x)
                return x
            """
        )
        assert "SPMD101" in rules_of(findings)

    def test_symmetric_early_return_is_clean(self):
        findings = proto(
            """
            def run(comm, x, n):
                if n == 0:
                    return x
                comm.allreduce(x)
            """
        )
        assert findings == []

    def test_op_mismatch_is_spmd102(self):
        findings = proto(
            """
            MAX = 1
            SUM = 2

            def run(comm, x):
                comm.allreduce(x, op=MAX if comm.rank == 0 else SUM)
            """
        )
        assert rules_of(findings) == ["SPMD102"]

    def test_rank_dependent_root_is_spmd102(self):
        findings = proto(
            """
            def run(comm, x):
                comm.bcast(x, root=comm.rank)
            """
        )
        assert rules_of(findings) == ["SPMD102"]

    def test_collective_in_rank_dep_loop_is_spmd103(self):
        findings = proto(
            """
            def run(comm, xs, owned_rows):
                for row in owned_rows:
                    comm.allreduce(xs)
            """
        )
        assert "SPMD103" in rules_of(findings)

    def test_uniform_loop_is_clean(self):
        findings = proto(
            """
            def run(comm, xs, n_rows):
                for row in range(n_rows):
                    comm.allreduce(xs)
            """
        )
        assert findings == []


# ----------------------------------------------------------------------
# SPMD2xx — interprocedural tag matching
# ----------------------------------------------------------------------
class TestTagMatching:
    def test_swapped_tags_across_modules(self):
        findings = proto_modules(
            fault_tags_a="""
            TAG_PING = 17

            def sender(comm, x):
                comm.send(x, 1, TAG_PING)
            """,
            fault_tags_b="""
            from fault.tags_a import TAG_PING

            TAG_PONG = 18

            def receiver(comm):
                return comm.recv(0, TAG_PONG)
            """,
        )
        assert sorted(rules_of(findings)) == ["SPMD201", "SPMD202"]

    def test_matching_cross_module_tags_are_clean(self):
        findings = proto_modules(
            ok_tags_a="""
            TAG_PING = 17

            def sender(comm, x):
                comm.send(x, 1, TAG_PING)
            """,
            ok_tags_b="""
            from ok.tags_a import TAG_PING

            def receiver(comm):
                return comm.recv(0, TAG_PING)
            """,
        )
        assert findings == []

    def test_dynamic_recv_makes_pool_wildcard(self):
        findings = proto(
            """
            def run(comm, x, tags):
                comm.send(x, 1, 99)
                for tag in tags:
                    comm.recv(0, tag)
            """
        )
        assert findings == []


# ----------------------------------------------------------------------
# SCHED0xx — dependency-schedule legality
# ----------------------------------------------------------------------
class TestScheduleLegality:
    def verdicts(self, *declarations):
        return {
            decl.key + "/" + decl.order: verdict
            for decl, verdict, _ in check_declared_schedules(declarations)
        }

    def test_right_endpoint_order_is_legal(self):
        verdicts = self.verdicts(
            ScheduleDeclaration("prna:row", "e", "row", "right-endpoint")
        )
        assert verdicts == {"prna:row/right-endpoint": "ok"}

    def test_reverse_order_is_illegal(self):
        verdicts = self.verdicts(
            ScheduleDeclaration(
                "prna:row", "e", "row", "reverse-right-endpoint"
            )
        )
        assert verdicts == {
            "prna:row/reverse-right-endpoint": "illegal-order"
        }

    def test_left_endpoint_order_is_illegal(self):
        # Inner arcs have larger left endpoints, so left-endpoint order
        # publishes every enclosing (reader) arc before its dependencies.
        verdicts = self.verdicts(
            ScheduleDeclaration("prna:row", "e", "row", "left-endpoint")
        )
        assert verdicts == {"prna:row/left-endpoint": "illegal-order"}

    def test_claims_sound_but_publishes_nothing(self):
        (_, verdict, detail) = check_declared_schedules(
            [ScheduleDeclaration("prna:row", "e", "none", "right-endpoint")]
        )[0]
        assert verdict == "no-publication"
        assert "stale" in detail

    def test_unknown_executor_is_inconsistent(self):
        verdicts = self.verdicts(
            ScheduleDeclaration("quantum:warp", "e", "row", "right-endpoint")
        )
        assert verdicts == {"quantum:warp/right-endpoint": "inconsistent"}

    def test_unknown_order_is_inconsistent(self):
        verdicts = self.verdicts(
            ScheduleDeclaration("prna:row", "e", "row", "spiral")
        )
        assert verdicts == {"prna:row/spiral": "inconsistent"}

    def test_shipped_declarations_all_legal(self):
        from repro.runtime.registry import executor_schedules

        for decl, verdict, detail in check_declared_schedules(
            executor_schedules()
        ):
            assert verdict == "ok", (decl.key, detail)

    def test_sched_findings_flow_through_analyze_protocol(self):
        path = "src/repro/runtime/registry.py"
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        findings = analyze_protocol(
            {path: tree},
            declarations=[
                ScheduleDeclaration(
                    "prna:row", "e", "row", "reverse-right-endpoint"
                ),
                ScheduleDeclaration("prna:row", "e", "none",
                                    "right-endpoint"),
                ScheduleDeclaration("quantum:warp", "e", "row",
                                    "right-endpoint"),
            ],
        )
        assert sorted(rules_of(findings)) == [
            "SCHED001", "SCHED002", "SCHED003",
        ]
        # Findings anchor at the declaration's key in registry.py when
        # the key appears there (prna:row does; quantum:warp falls back).
        sched1 = next(f for f in findings if f.rule == "SCHED001")
        assert sched1.path == path
        assert sched1.line > 1


class TestArcDependencyPairs:
    def test_pairs_match_matrix(self):
        import numpy as np

        from repro.analysis.depgraph import (
            arc_dependency_pairs,
            memo_dependency_matrix,
        )
        from repro.structure.dotbracket import from_dotbracket

        s = from_dotbracket("((())(()))()")
        matrix = memo_dependency_matrix(s, s)
        pairs = arc_dependency_pairs(s)
        rebuilt = np.zeros_like(matrix)
        for reader, dep in pairs:
            rebuilt[reader, dep] += 1
        assert np.array_equal(matrix, rebuilt)

    def test_every_dependency_is_strictly_lower(self):
        from repro.analysis.depgraph import arc_dependency_pairs
        from repro.structure.generators import contrived_worst_case

        s = contrived_worst_case(40)
        assert all(dep < reader for reader, dep in arc_dependency_pairs(s))
