"""Unit tests for the execution context: launch, ownership, records."""

import json

import pytest

from repro.check.sanitizer import SanitizedCommunicator
from repro.errors import SimulationError
from repro.mpi.costmodel import CostModel
from repro.runtime.context import ExecutionContext, sanitize_communicator
from repro.runtime.plan import Planner
from repro.structure.generators import contrived_worst_case


class TestLaunch:
    def test_thread_backend_rank_order(self):
        results = ExecutionContext().launch(
            lambda comm: (comm.rank, comm.size), n_ranks=3, backend="thread"
        )
        assert results == [(0, 3), (1, 3), (2, 3)]

    def test_self_backend_single_rank(self):
        results = ExecutionContext().launch(
            lambda comm: comm.size, n_ranks=1, backend="self"
        )
        assert results == [1]

    def test_self_backend_rejects_world(self):
        with pytest.raises(SimulationError, match="exactly one rank"):
            ExecutionContext().launch(
                lambda comm: None, n_ranks=2, backend="self"
            )

    def test_bad_world_size(self):
        with pytest.raises(SimulationError, match="n_ranks must be >= 1"):
            ExecutionContext().launch(lambda comm: None, n_ranks=0)

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend 'bogus'"):
            ExecutionContext().launch(
                lambda comm: None, n_ranks=1, backend="bogus"
            )

    def test_collect_stats_policy_applied_per_rank(self):
        context = ExecutionContext(collect_stats=True)

        def rank_main(comm):
            comm.barrier()
            return comm.stats.barriers

        results = context.launch(rank_main, n_ranks=2, backend="thread")
        assert results == [1, 1]


class TestProcessRankSpans:
    """Process ranks record into their forked tracer and ship spans back."""

    def test_spans_from_every_rank_inside_launch_window(self):
        context = ExecutionContext(trace=True)
        tracer = context.tracer

        def rank_main(comm):
            with tracer.span("work", rank=comm.rank, category="compute"):
                comm.barrier()
            return comm.rank

        with tracer.span("before", rank=9):
            pass
        results = context.launch(rank_main, n_ranks=2, backend="process")
        with tracer.span("after", rank=9):
            pass
        assert results == [0, 1]
        names = [e.name for e in tracer.events]
        # Spans recorded before the fork are not shipped back twice.
        assert names.count("before") == 1
        before, after = (
            tracer.events[names.index(name)] for name in ("before", "after")
        )
        work = [e for e in tracer.events if e.name == "work"]
        assert sorted(e.rank for e in work) == [0, 1]
        for event in work:
            assert before.end <= event.start <= event.end <= after.start

    def test_cost_model_results_stay_pairs(self):
        context = ExecutionContext(trace=True)
        tracer = context.tracer

        def rank_main(comm):
            with tracer.span("work", rank=comm.rank, category="compute"):
                comm.charge_compute(0.5)
            return comm.rank

        results = context.launch(
            rank_main, n_ranks=2, backend="process", cost_model=CostModel()
        )
        assert [value for value, _ in results] == [0, 1]
        assert all(simulated >= 0.5 for _, simulated in results)
        assert sorted(e.rank for e in tracer.events) == [0, 1]

    def test_sanitizer_spans_arrive(self):
        context = ExecutionContext(trace=True)
        tracer = context.tracer

        def rank_main(comm):
            sanitize_communicator(comm, tracer=tracer).barrier()

        context.launch(rank_main, n_ranks=2, backend="process")
        ranks = {e.rank for e in tracer.events if e.category == "sanitizer"}
        assert ranks == {0, 1}


class TestOwnership:
    def test_sanitize_communicator_is_idempotent(self):
        (comm,) = ExecutionContext().launch(sanitize_communicator, backend="self")
        assert isinstance(comm, SanitizedCommunicator)
        assert sanitize_communicator(comm) is comm

    def test_tracer_constructed_only_on_request(self):
        assert ExecutionContext().tracer is None
        assert ExecutionContext(trace=True).tracer is not None

    def test_context_manager_writes_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        with ExecutionContext(trace_path=str(path)) as context:
            with context.tracer.span("work", rank=0):
                pass
        payload = json.loads(path.read_text())
        names = {event.get("name") for event in payload["traceEvents"]}
        assert "work" in names


class TestRecords:
    def test_record_embeds_plan(self):
        structure = contrived_worst_case(40)
        plan = Planner().plan(structure, structure)
        context = ExecutionContext()
        record = context.record("unit", {"n": 40}, {"score": 7}, plan=plan)
        assert record in context.records
        assert record.run_id == context.run_id
        assert record.parameters["plan"]["algorithm"] == plan.algorithm
        assert "plan[pair]" in record.parameters["plan"]["explain"]
        assert record.metrics["score"] == 7

    def test_record_appends_to_run_log(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        context = ExecutionContext(run_log_path=str(path))
        context.record("unit", {"k": 1}, {"v": 2})
        context.record("unit", {"k": 2}, {"v": 3})
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        payload = json.loads(lines[0])
        assert payload["kind"] == "unit"
        assert payload["run_id"] == context.run_id
