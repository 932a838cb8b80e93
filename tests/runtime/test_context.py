"""Unit tests for the execution context: launch, ownership, records."""

import json

import pytest

from repro.check.sanitizer import SanitizedCommunicator
from repro.errors import SimulationError
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

    def test_tracer_incompatible_with_process_backend(self):
        context = ExecutionContext(trace=True)
        with pytest.raises(SimulationError, match="shared in-memory tracer"):
            context.launch(lambda comm: None, n_ranks=2, backend="process")

    def test_collect_stats_policy_applied_per_rank(self):
        context = ExecutionContext(collect_stats=True)

        def rank_main(comm):
            comm.barrier()
            return comm.stats.barriers

        results = context.launch(rank_main, n_ranks=2, backend="thread")
        assert results == [1, 1]


class TestOwnership:
    def test_sanitize_communicator_is_idempotent(self):
        comm = ExecutionContext(sanitize=True).self_communicator()
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
