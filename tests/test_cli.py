"""Command-line interface."""

import pytest

from repro.cli import main
from repro.structure.io import write_vienna
from repro.structure.generators import contrived_worst_case


class TestCompare:
    def test_dotbracket_args(self, capsys):
        assert main(["compare", "((()))(())", "(())((()))"]) == 0
        out = capsys.readouterr().out
        assert "MCOS score: 4" in out

    def test_backtrace(self, capsys):
        assert main(["compare", "(())", "(())", "--backtrace"]) == 0
        out = capsys.readouterr().out
        assert "matched arc pairs" in out
        assert "(0, 3) <-> (0, 3)" in out

    def test_file_inputs(self, tmp_path, capsys):
        path = tmp_path / "w.vienna"
        write_vienna(contrived_worst_case(10), path)
        assert main(["compare", str(path), str(path)]) == 0
        assert "MCOS score: 5" in capsys.readouterr().out

    def test_algorithm_choice(self, capsys):
        assert main(["compare", "(())", "(())", "--algorithm", "topdown"]) == 0
        assert "topdown" in capsys.readouterr().out

    def test_bad_input(self, capsys):
        assert main(["compare", "/nonexistent/file.xyz", "()"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_undecodable_file(self, tmp_path, capsys):
        path = tmp_path / "bad.bpseq"
        path.write_bytes(b"1 G 0\n2 \xff 0\n")
        assert main(["compare", str(path), "()"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "bad.bpseq" in err

    @pytest.mark.parametrize("mode", ["pair", "deferred"])
    def test_removed_sync_modes_rejected(self, mode, capsys):
        with pytest.raises(SystemExit):
            main(["compare", "(())", "()", "--sync-mode", mode])
        assert "invalid choice" in capsys.readouterr().err


class TestGenerate:
    def test_worst_case_stdout(self, capsys):
        assert main(["generate", "worst-case", "--length", "8"]) == 0
        assert capsys.readouterr().out.strip() == "(((())))"

    def test_comb(self, capsys):
        assert main(["generate", "comb", "--teeth", "2", "--depth", "2"]) == 0
        assert capsys.readouterr().out.strip() == "(())(())"

    def test_random_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "r.bpseq"
        assert (
            main(
                [
                    "generate", "random", "--length", "30", "--arcs", "8",
                    "--seed", "3", "-o", str(out_path),
                ]
            )
            == 0
        )
        from repro.structure.io import read_bpseq

        assert read_bpseq(out_path).n_arcs == 8

    def test_rna_like_ct(self, tmp_path):
        out_path = tmp_path / "r.ct"
        assert (
            main(
                [
                    "generate", "rna-like", "--length", "60",
                    "-o", str(out_path),
                ]
            )
            == 0
        )
        from repro.structure.io import read_ct

        assert read_ct(out_path).length == 60


class TestDescribe:
    def test_inline(self, capsys):
        assert main(["describe", "((..))"]) == 0
        out = capsys.readouterr().out
        assert "length:            6" in out
        assert "max nesting depth: 2" in out

    def test_draw_flag(self, capsys):
        assert main(["describe", "((..))", "--draw"]) == 0
        out = capsys.readouterr().out
        assert ".----." in out
        assert "((..))" in out


class TestSearch:
    def test_ranks_targets(self, tmp_path, capsys):
        from repro.structure.generators import rna_like_structure

        query = rna_like_structure(60, 14, seed=31)
        paths = []
        for k in range(3):
            target = rna_like_structure(60, 14, seed=31 + k)
            path = tmp_path / f"target-{k}.vienna"
            write_vienna(target, path)
            paths.append(str(path))
        assert main(["search", str(paths[0]), *paths]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        # First-ranked hit is the query itself, full coverage.
        assert "target-0" in lines[2]
        assert "100.0%" in lines[2]

    def test_workers_flag(self, tmp_path, capsys):
        path = tmp_path / "t.vienna"
        write_vienna(contrived_worst_case(20), path)
        assert main(
            ["search", "(((...)))", str(path), "--workers", "2"]
        ) == 0
        assert "rank" in capsys.readouterr().out

    def test_algorithm_and_engine_flags(self, tmp_path, capsys):
        path = tmp_path / "t.vienna"
        write_vienna(contrived_worst_case(20), path)
        assert main(
            [
                "search", "(((...)))", str(path),
                "--algorithm", "srna1", "--engine", "python",
            ]
        ) == 0
        assert "rank" in capsys.readouterr().out

    def test_trace_flag_writes_spans(self, tmp_path, capsys):
        from repro.obs.tracer import load_chrome_trace

        path = tmp_path / "t.vienna"
        write_vienna(contrived_worst_case(20), path)
        trace = tmp_path / "search.trace.json"
        assert main(
            ["search", "(((...)))", str(path), "--trace", str(trace)]
        ) == 0
        payload = load_chrome_trace(str(trace))
        names = {
            e["name"] for e in payload["traceEvents"] if e["ph"] == "X"
        }
        assert any(name.startswith("score:") for name in names)


class TestSimulate:
    def test_default_worst_case(self, capsys):
        assert main(["simulate", "--length", "400", "--procs", "1,4"]) == 0
        out = capsys.readouterr().out
        assert "P=  1" in out and "P=  4" in out
        assert "speedup" in out


class TestObservability:
    def test_compare_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "cmp.trace.json"
        metrics = tmp_path / "cmp.metrics.jsonl"
        assert main(
            [
                "compare", "((()))(())", "(())((()))",
                "--trace", str(trace), "--metrics", str(metrics),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        assert "run record appended to" in out
        from repro.obs.runrecord import load_run_records
        from repro.obs.tracer import load_chrome_trace

        payload = load_chrome_trace(str(trace))
        names = {
            e["name"] for e in payload["traceEvents"] if e["ph"] == "X"
        }
        assert {"preprocessing", "stage_one", "stage_two"} <= names
        (record,) = load_run_records(str(metrics))
        assert record["kind"] == "compare"
        assert record["metrics"]["slices_tabulated"] > 0
        # Every compare record carries the serialized plan + rationale.
        plan = record["parameters"]["plan"]
        assert plan["algorithm"] == "srna2"
        assert "plan[pair]" in plan["explain"]
        assert plan["rationale"]

    def test_compare_prna_traces_every_process_rank(
        self, tmp_path, capsys, monkeypatch
    ):
        """The traced context is the one the solve runs under."""
        from repro.obs.runrecord import load_run_records
        from repro.obs.tracer import load_chrome_trace
        from repro.structure.dotbracket import to_dotbracket

        monkeypatch.setattr("repro.runtime.plan.os.cpu_count", lambda: 2)
        pair = to_dotbracket(contrived_worst_case(80))
        trace = tmp_path / "prna.trace.json"
        metrics = tmp_path / "prna.metrics.jsonl"
        assert main(
            [
                "compare", pair, pair, "--algorithm", "prna",
                "--trace", str(trace), "--metrics", str(metrics),
            ]
        ) == 0
        assert "MCOS score: 40" in capsys.readouterr().out
        spans = [
            e for e in load_chrome_trace(str(trace))["traceEvents"]
            if e["ph"] == "X"
        ]
        assert {e["tid"] for e in spans if e["cat"] == "compute"} == {0, 1}
        (record,) = load_run_records(str(metrics))
        plan = record["parameters"]["plan"]
        assert (plan["n_ranks"], plan["backend"]) == (2, "process")
        # A parallel plan fills no instrumentation: its counters are the
        # communicator's, not a row of zeros.
        assert record["metrics"]["comm_stats"]["publishes"] > 0

    def test_simulate_trace_and_report(self, tmp_path, capsys):
        trace = tmp_path / "sim.trace.json"
        assert main(
            [
                "simulate", "--length", "40", "--procs", "1,2",
                "--trace", str(trace), "--trace-ranks", "2",
            ]
        ) == 0
        assert "executed a traced 2-rank PRNA run" in capsys.readouterr().out
        assert main(["trace-report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "rank 0" in out and "rank 1" in out
        assert "comm-wait" in out

    def test_trace_report_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["trace-report", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_report_missing_file(self, capsys):
        assert main(["trace-report", "/nonexistent/trace.json"]) == 1
        assert "error:" in capsys.readouterr().err


class TestMisc:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_no_command(self):
        with pytest.raises(SystemExit):
            main([])
