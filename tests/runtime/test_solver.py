"""Facade tests: parity with SRNA2, parallel dispatch, records, batch."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.api import mcos
from repro.core.checkpoint import srna2_checkpointed
from repro.core.instrument import Instrumentation
from repro.core.srna2 import srna2
from repro.errors import ReproError
from repro.obs.tracer import validate_chrome_trace
from repro.runtime.context import ExecutionContext
from repro.runtime.plan import ResourceHints
from repro.runtime.solver import Solver, solve, solve_batch

from tests.conftest import make_random_pair, structure_pairs
from repro.structure.generators import contrived_worst_case, rna_like_structure


class TestAutoParity:
    """The acceptance property: any auto plan scores exactly like SRNA2."""

    @given(pair=structure_pairs(max_arcs=6))
    @settings(max_examples=25, deadline=None)
    def test_auto_matches_srna2(self, pair):
        s1, s2 = pair
        result = solve(s1, s2)
        assert result.score == srna2(s1, s2).score

    @given(pair=structure_pairs(max_arcs=5))
    @settings(max_examples=15, deadline=None)
    def test_forced_prna_thread_matches_srna2(self, pair):
        s1, s2 = pair
        result = solve(
            s1, s2, algorithm="prna", n_ranks=2, backend="thread"
        )
        reference = srna2(s1, s2)
        assert result.score == reference.score
        assert np.array_equal(result.memo.values, reference.memo.values)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_backend_matrix(self, backend, seed):
        s1, s2 = make_random_pair(seed)
        result = solve(
            s1, s2, algorithm="prna", n_ranks=2, backend=backend
        )
        reference = srna2(s1, s2)
        assert result.score == reference.score
        assert np.array_equal(result.memo.values, reference.memo.values)

    def test_managerworker_matches_srna2(self):
        structure = contrived_worst_case(40)
        result = solve(
            structure, structure,
            algorithm="managerworker", n_ranks=3, backend="thread",
        )
        assert result.score == srna2(structure, structure).score


class TestSolveSurface:
    def test_auto_is_the_default(self):
        result = solve("((..))", "(())")
        assert result.plan.algorithm == "srna2"
        assert result.algorithm == result.plan.algorithm
        assert int(result) == result.score

    def test_backtrace_through_facade(self):
        result = solve("((..))", "((..))", with_backtrace=True)
        assert result.matched_pairs is not None
        assert len(result.matched_pairs) == result.score

    def test_backtrace_rejected_for_wrong_algorithm(self):
        with pytest.raises(ValueError, match="with_backtrace requires"):
            solve("(())", "(())", algorithm="topdown", with_backtrace=True)

    def test_hints_flow_into_planning(self):
        structure = contrived_worst_case(400)
        result = Solver(ResourceHints(max_ranks=1)).plan(structure, structure)
        assert result.algorithm == "srna2"

    def test_run_record_carries_plan(self):
        context = ExecutionContext()
        result = Solver(context=context).solve("((..))", "(())")
        assert result.record is context.records[-1]
        plan_payload = result.record.parameters["plan"]
        assert plan_payload["algorithm"] == result.algorithm
        assert "plan[pair]" in plan_payload["explain"]
        assert result.record.metrics["score"] == result.score

    @pytest.mark.parametrize(
        "options",
        [{}, {"algorithm": "prna", "n_ranks": 2, "backend": "thread"}],
        ids=["sequential", "parallel"],
    )
    def test_run_record_carries_measured_wall_time(self, options):
        context = ExecutionContext()
        result = Solver(context=context).solve("((..))", "(())", **options)
        assert result.algorithm == options.get("algorithm", "srna2")
        metrics = result.record.metrics
        assert metrics["wall_s"] > 0
        assert "estimated_seconds" in result.record.parameters["plan"]
        # Beside the measurement: the model's per-stage prediction.
        plan = result.record.parameters["plan"]
        predicted = plan["predicted_stages"]
        assert list(predicted) == [
            "preprocessing_s", "stage_one_compute_s",
            "stage_one_comm_s", "stage_two_s",
        ]
        assert sum(predicted.values()) == pytest.approx(
            plan["estimated_seconds"], rel=1e-12
        )
        assert (predicted["stage_one_comm_s"] > 0) == bool(options)

    def test_comm_stats_surface(self):
        s1, s2 = make_random_pair(3)
        result = solve(
            s1, s2,
            algorithm="prna", n_ranks=2, backend="thread",
            collect_stats=True,
        )
        assert result.comm_stats is not None
        assert result.comm_stats["allreduces"] >= 0

    def test_parallel_result_leaves_instrumentation_unset(self):
        """PRNA fills no Instrumentation, so none is attached to report 0s."""
        s1, s2 = make_random_pair(3)
        result = solve(
            s1, s2, algorithm="prna", n_ranks=2, backend="thread",
            instrumentation=Instrumentation(),
        )
        assert result.instrumentation is None


class TestTracedSolve:
    """A tracing context changes neither the plan nor the executed run."""

    @pytest.fixture(scope="class")
    def runs(self):
        structure = contrived_worst_case(400)
        hints = ResourceHints(max_ranks=2)
        untraced = solve(structure, structure, hints=hints)
        context = ExecutionContext(trace=True)
        traced = Solver(hints, context=context).solve(structure, structure)
        return untraced, traced, context.tracer

    def test_same_plan_as_untraced(self, runs):
        untraced, traced, _ = runs
        assert traced.plan.to_dict() == untraced.plan.to_dict()
        plan = traced.plan
        assert (plan.algorithm, plan.backend, plan.n_ranks, plan.sync_mode) == (
            "prna", "process", 2, "dataflow"
        )
        assert traced.score == untraced.score == 200

    def test_one_compute_track_per_process_rank(self, runs):
        _, _, tracer = runs
        compute = {e.rank for e in tracer.events if e.category == "compute"}
        assert compute == {0, 1}
        assert validate_chrome_trace(tracer.to_chrome_trace()) == []


class TestCheckpointResume:
    def test_interrupted_run_resumes_through_facade(self, tmp_path):
        structure = contrived_worst_case(40)
        reference = srna2(structure, structure)
        path = str(tmp_path / "stage1.ckpt")
        with pytest.raises(InterruptedError):
            srna2_checkpointed(
                structure, structure, path, every=1, interrupt_after=3
            )
        result = solve(structure, structure, checkpoint_path=path)
        assert result.algorithm == "srna2"
        assert result.score == reference.score
        assert np.array_equal(result.memo.values, reference.memo.values)

    def test_checkpointed_run_is_instrumented(self, tmp_path):
        """A checkpointed solve counts the same slices and cells as a plain
        one and times both stages."""
        structure = rna_like_structure(120, 20, seed=1)
        plain, checkpointed = Instrumentation(), Instrumentation()
        solve(structure, structure, algorithm="srna2", instrumentation=plain)
        solve(
            structure, structure, algorithm="srna2",
            checkpoint_path=str(tmp_path / "run.ckpt"),
            instrumentation=checkpointed,
        )
        assert (plain.slices_tabulated, plain.cells_tabulated) == (401, 9236)
        assert checkpointed.slices_tabulated == plain.slices_tabulated
        assert checkpointed.cells_tabulated == plain.cells_tabulated
        assert checkpointed.stage_times.stage_one > 0
        assert checkpointed.stage_times.stage_two > 0

    def test_zero_checkpoint_interval_rejected(self, tmp_path):
        structure = contrived_worst_case(20)
        with pytest.raises(ValueError, match="every must be >= 1"):
            solve(
                structure, structure,
                checkpoint_path=str(tmp_path / "x.ckpt"), checkpoint_every=0,
            )

    def test_checkpoint_rejected_for_wrong_algorithm(self, tmp_path):
        with pytest.raises(ValueError, match="checkpointing requires"):
            solve(
                "(())", "(())",
                algorithm="topdown",
                checkpoint_path=str(tmp_path / "x.ckpt"),
            )


class TestSolveBatch:
    @pytest.fixture
    def targets(self):
        return {
            "full": "((()))",
            "partial": "(())",
            "empty": "....",
        }

    def test_hits_ranked_best_first(self, targets):
        hits = solve_batch("((()))", targets)
        assert [hit.name for hit in hits] == ["full", "partial", "empty"]
        assert hits[0].score > hits[1].score > hits[2].score

    def test_scores_are_sequential_scores(self, targets):
        from repro.structure.dotbracket import from_dotbracket

        query = from_dotbracket("((()))")
        hits = solve_batch(query, targets)
        for hit in hits:
            expected = srna2(query, from_dotbracket(targets[hit.name])).score
            assert hit.score == expected

    def test_bad_worker_count(self, targets):
        with pytest.raises(ReproError, match="n_workers must be >= 1"):
            solve_batch("(())", targets, n_workers=0)

    def test_record_carries_search_plan(self, targets):
        context = ExecutionContext()
        Solver(context=context).solve_batch("((()))", targets)
        record = context.records[-1]
        assert record.kind == "search"
        assert record.parameters["plan"]["workload"] == "search"
        assert record.metrics["best_target"] == "full"


class TestMcosShim:
    def test_mcos_defaults_through_planner_unchanged(self):
        s1, s2 = make_random_pair(7)
        assert mcos(s1, s2).score == srna2(s1, s2).score

    def test_mcos_default_engine_is_batched(self, monkeypatch):
        import repro.core.api as api

        plans = []

        def spy(*args, **kwargs):
            result = solve(*args, **kwargs)
            plans.append(result.plan)
            return result

        monkeypatch.setattr(api, "solve", spy)
        s1, s2 = make_random_pair(7)
        assert mcos(s1, s2).score == srna2(s1, s2).score
        assert [(p.algorithm, p.engine) for p in plans] == [("srna2", "batched")]

    def test_mcos_backtrace_preserved(self):
        result = mcos("((..))", "((..))", with_backtrace=True)
        assert result.matched_pairs is not None
        assert len(result.matched_pairs) == result.score


def test_rrna_sized_solve_never_expands_positions(monkeypatch):
    """A 4216 nt / 721-arc solve holds only the arc table: no path from
    planning to the returned result builds the n x m expansion."""
    from repro.core.memo import ArcMemoTable

    def forbidden(self):
        raise AssertionError("position table expanded on a solve path")

    monkeypatch.setattr(ArcMemoTable, "positions", forbidden)
    s = rna_like_structure(4216, 721, seed=1)
    result = solve(s, s, hints=ResourceHints(max_ranks=2))
    assert result.score == s.n_arcs == 721
    assert result.memo.nbytes() == 721 * 721 * 8
