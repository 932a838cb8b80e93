"""Span tracer: nesting, thread safety, disabled mode, Chrome export."""

import json
import threading
import time

import pytest

from repro.obs.tracer import (
    NULL_SPAN,
    Tracer,
    load_chrome_trace,
    validate_chrome_trace,
)


class TestSpans:
    def test_records_named_interval(self):
        tracer = Tracer()
        with tracer.span("work", rank=2, category="compute", row=7):
            time.sleep(0.001)
        (event,) = tracer.events
        assert event.name == "work"
        assert event.category == "compute"
        assert event.rank == 2
        assert event.args == {"row": 7}
        assert event.duration >= 0.001
        assert event.end == pytest.approx(event.start + event.duration)

    def test_nesting_preserves_containment(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.001)
            time.sleep(0.001)
        inner, outer = tracer.events  # completion order: inner first
        assert inner.name == "inner"
        assert outer.start <= inner.start
        assert inner.end <= outer.end

    def test_span_records_even_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert [e.name for e in tracer.events] == ["doomed"]

    def test_thread_safety(self):
        tracer = Tracer()

        def worker(rank: int) -> None:
            for i in range(50):
                with tracer.span("w", rank=rank, index=i):
                    pass

        threads = [
            threading.Thread(target=worker, args=(rank,)) for rank in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        events = tracer.events
        assert len(events) == 200
        for rank in range(4):
            assert sum(1 for e in events if e.rank == rank) == 50


class TestDisabledMode:
    def test_disabled_returns_shared_null_span(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("anything", rank=3, category="compute") is NULL_SPAN
        with tracer.span("x"):
            pass
        assert tracer.events == ()

    def test_disabled_overhead_is_negligible(self):
        """100k disabled spans must be effectively free (no locks, no
        allocation beyond the call itself)."""
        tracer = Tracer(enabled=False)
        start = time.perf_counter()
        for _ in range(100_000):
            with tracer.span("hot"):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0  # generous: ~microseconds each even on CI

    def test_merge_appends_foreign_spans_unchanged(self):
        source, target = Tracer(), Tracer()
        with source.span("remote", rank=1, category="compute"):
            pass
        with target.span("local", rank=0):
            pass
        target.merge(source.events)
        assert [e.name for e in target.events] == ["local", "remote"]
        assert target.events[1] == source.events[0]

    def test_name_track_noop_when_disabled(self):
        tracer = Tracer(enabled=False)
        tracer.name_track(0, "rank 0")
        assert tracer.to_chrome_trace()["traceEvents"][0]["name"] == (
            "process_name"
        )


class TestChromeExport:
    def test_schema_fields(self):
        tracer = Tracer()
        tracer.name_track(1, "rank 1")
        with tracer.span("work", rank=1, category="compute"):
            pass
        payload = tracer.to_chrome_trace()
        assert validate_chrome_trace(payload) == []
        events = payload["traceEvents"]
        x_events = [e for e in events if e["ph"] == "X"]
        (event,) = x_events
        assert event["name"] == "work"
        assert event["cat"] == "compute"
        assert isinstance(event["ts"], float)
        assert isinstance(event["dur"], float)
        assert event["pid"] == 0
        assert event["tid"] == 1
        names = [
            e for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert {"name": "rank 1"} in [e["args"] for e in names]

    def test_write_and_load_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a", rank=0):
            pass
        path = tmp_path / "t.trace.json"
        tracer.write(str(path))
        payload = load_chrome_trace(str(path))
        assert any(e.get("name") == "a" for e in payload["traceEvents"])

    def test_timestamps_in_microseconds(self):
        tracer = Tracer()
        with tracer.span("slow"):
            time.sleep(0.002)
        (event,) = [
            e for e in tracer.to_chrome_trace()["traceEvents"]
            if e["ph"] == "X"
        ]
        assert event["dur"] >= 2000  # 2 ms = 2000 µs


class TestValidation:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([1, 2]) != []
        assert validate_chrome_trace(None) != []

    def test_rejects_missing_trace_events(self):
        assert validate_chrome_trace({}) == ["missing or non-list 'traceEvents'"]

    def test_rejects_malformed_events(self):
        bad = {"traceEvents": [{"ph": "X", "pid": 0, "tid": 0, "name": "a"}]}
        problems = validate_chrome_trace(bad)
        assert any("'ts'" in p for p in problems)
        assert any("'dur'" in p for p in problems)

    def test_rejects_negative_duration(self):
        bad = {
            "traceEvents": [
                {"ph": "X", "pid": 0, "tid": 0, "name": "a",
                 "ts": 1.0, "dur": -5.0}
            ]
        }
        assert any("negative" in p for p in validate_chrome_trace(bad))

    def test_load_raises_on_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"traceEvents": "nope"}))
        with pytest.raises(ValueError, match="not a valid Chrome trace"):
            load_chrome_trace(str(path))
