"""End-to-end: traced multi-rank PRNA runs on the thread and process backends."""

import pytest

from repro.obs.report import summarize_trace
from repro.obs.tracer import Tracer, validate_chrome_trace
from repro.parallel.prna import prna
from repro.structure.generators import contrived_worst_case

RANKS = 4
LENGTH = 60  # 30 arcs — small enough for CI, multi-row enough to trace


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    structure = contrived_worst_case(LENGTH)
    tracer = Tracer()
    result = prna(
        structure, structure, RANKS,
        backend="thread", tracer=tracer, collect_stats=True,
    )
    path = str(tmp_path_factory.mktemp("trace") / "prna.trace.json")
    tracer.write(path)
    return structure, tracer, result, path


class TestTracedPRNA:
    def test_answer_still_correct(self, traced_run):
        structure, _, result, _ = traced_run
        assert result.score == structure.n_arcs  # self-comparison

    def test_one_track_per_rank(self, traced_run):
        _, tracer, _, _ = traced_run
        assert {e.rank for e in tracer.events} == set(range(RANKS))
        payload = tracer.to_chrome_trace()
        names = {
            e["tid"]: e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {r: f"rank {r}" for r in range(RANKS)}

    def test_valid_chrome_schema(self, traced_run):
        _, tracer, _, _ = traced_run
        assert validate_chrome_trace(tracer.to_chrome_trace()) == []

    def test_spans_non_overlapping_within_track(self, traced_run):
        """Each rank's code is sequential, so its spans must not overlap."""
        _, tracer, _, _ = traced_run
        for rank in range(RANKS):
            spans = sorted(
                (e for e in tracer.events if e.rank == rank),
                key=lambda e: e.start,
            )
            assert spans, f"rank {rank} recorded no spans"
            for previous, current in zip(spans, spans[1:]):
                assert current.start >= previous.end

    def test_tabulation_distinguished_from_allreduce_wait(self, traced_run):
        structure, tracer, _, _ = traced_run
        for rank in range(RANKS):
            events = [e for e in tracer.events if e.rank == rank]
            compute = [e for e in events if e.category == "compute"]
            comm = [e for e in events if e.category == "comm"]
            # One tabulation span and one Allreduce wait per outer arc.
            assert (
                sum(1 for e in compute if e.name == "tabulate_row")
                == structure.n_arcs
            )
            assert (
                sum(1 for e in comm if e.name == "allreduce_wait")
                == structure.n_arcs
            )
            assert any(e.name == "bcast_wait" for e in comm)
        rank0_names = {
            e.name for e in tracer.events if e.rank == 0
        }
        assert "parent_slice" in rank0_names

    def test_comm_stats_surfaced_on_result(self, traced_run):
        structure, _, result, _ = traced_run
        assert result.comm_stats is not None
        assert result.comm_stats["allreduces"] == structure.n_arcs
        # One int64 memo row per outer arc (paper §V-B), |A2| cells long
        # in the arc-indexed table.
        assert result.comm_stats["allreduce_bytes"] == (
            structure.n_arcs * structure.n_arcs * 8
        )

    def test_trace_report_reproduces_figure8_categories(self, traced_run):
        _, _, _, path = traced_run
        report = summarize_trace(path)
        assert len(report.ranks) == RANKS
        assert report.wall_seconds > 0
        for summary in report.ranks:
            assert summary.compute_seconds > 0
            assert summary.comm_seconds > 0
            shares = summary.shares()
            assert shares["compute"] + shares["comm"] + shares["idle"] == (
                pytest.approx(100.0)
            )

    def test_untraced_run_unchanged(self):
        structure = contrived_worst_case(LENGTH)
        result = prna(structure, structure, RANKS, backend="thread")
        assert result.score == structure.n_arcs
        assert result.comm_stats is None

    def test_process_backend_traces_every_rank(self):
        """Forked ranks ship their spans back: same tracks as threads."""
        structure = contrived_worst_case(LENGTH)
        tracer = Tracer()
        result = prna(
            structure, structure, 2, backend="process", tracer=tracer,
        )
        assert result.score == structure.n_arcs
        assert {e.rank for e in tracer.events} == {0, 1}
        for rank in (0, 1):
            rows = [
                e for e in tracer.events
                if e.rank == rank and e.name == "tabulate_row"
            ]
            assert len(rows) == structure.n_arcs
        assert validate_chrome_trace(tracer.to_chrome_trace()) == []
