"""Unit tests for the SPMD static pass (rules, suppression, driver)."""

import json
import io
import os
import textwrap

import pytest

from repro.check import analyze_source, run_check
from repro.check.findings import RULES, Finding, is_suppressed


def check(source: str, path: str = "snippet.py"):
    return analyze_source(textwrap.dedent(source), path=path)


def rules_of(findings) -> list[str]:
    return [finding.rule for finding in findings]


class TestSPMD001:
    """Rank-dependent collectives, once the lexical SPMD001 rule: the
    protocol pass proves them as SPMD101 (divergent schedules) and
    SPMD103 (rank-dependent trip counts)."""

    def test_barrier_under_rank_if(self):
        findings = check(
            """
            def fn(comm):
                if comm.rank == 0:
                    comm.barrier()
            """
        )
        assert rules_of(findings) == ["SPMD101"]
        assert "barrier" in findings[0].message
        assert findings[0].line == 4  # snippet has a leading blank line

    def test_collective_in_else_branch(self):
        findings = check(
            """
            def fn(comm):
                if comm.rank == 0:
                    pass
                else:
                    comm.bcast(1, root=0)
            """
        )
        assert rules_of(findings) == ["SPMD101"]

    def test_while_and_ifexp(self):
        findings = check(
            """
            def fn(comm, my_rank):
                while my_rank < 2:
                    comm.allreduce(1)
                x = comm.allgather(1) if my_rank else None
            """
        )
        assert rules_of(findings) == ["SPMD103", "SPMD101"]

    def test_uniform_conditional_is_clean(self):
        findings = check(
            """
            def fn(comm, n):
                if n > 10:
                    comm.barrier()
            """
        )
        assert findings == []

    def test_all_ranks_collective_is_clean(self):
        findings = check(
            """
            def fn(comm):
                comm.barrier()
                score = comm.bcast(1, root=0)
            """
        )
        assert findings == []

    def test_nested_function_resets_context(self):
        # The nested def is *called* from rank-uniform context; flagging
        # its body would be a false positive.
        findings = check(
            """
            def fn(comm):
                if comm.rank == 0:
                    def helper():
                        comm.barrier()
            """
        )
        assert findings == []

    def test_numpy_reduce_not_a_collective(self):
        findings = check(
            """
            import numpy as np
            def fn(rank, xs):
                if rank == 0:
                    return np.maximum.reduce(xs)
            """
        )
        assert findings == []

    def test_rank_test_inside_collective_free_branch_then_after(self):
        # Collective *after* the conditional is fine.
        findings = check(
            """
            def fn(comm):
                if comm.rank == 0:
                    x = 1
                comm.barrier()
            """
        )
        assert findings == []


class TestSPMD002:
    """Unmatched constant tags, once the lexical SPMD002 rule: the
    protocol pass proves them as SPMD201 (send) and SPMD202 (recv)."""

    def test_unmatched_literal_tag(self):
        findings = check(
            """
            def fn(comm):
                comm.send("x", 1, tag=3)
                comm.recv(0, tag=5)
            """
        )
        assert rules_of(findings) == ["SPMD201", "SPMD202"]
        assert "tag 3" in findings[0].message

    def test_matched_literal_tags_clean(self):
        findings = check(
            """
            def fn(comm):
                comm.send("x", 1, tag=3)
                comm.recv(0, tag=3)
            """
        )
        assert findings == []

    def test_module_constant_tags(self):
        findings = check(
            """
            TAG_WORK = 7
            TAG_STOP = 8
            def fn(comm):
                comm.send("x", 1, tag=TAG_WORK)
                comm.recv(0, tag=TAG_WORK)
                comm.send("y", 1, tag=TAG_STOP)
            """
        )
        assert rules_of(findings) == ["SPMD201"]
        assert "tag 8" in findings[0].message

    def test_class_attribute_tags(self):
        findings = check(
            """
            class Comm:
                _PING = 17
                def fn(self):
                    self.send("x", 1, tag=self._PING)
                    self.recv(0, tag=self._PING)
            """
        )
        assert findings == []

    def test_dynamic_recv_is_wildcard(self):
        # A receive with an unresolvable tag may match anything; the whole
        # module is exempt (conservative, avoids false positives).
        findings = check(
            """
            def fn(comm, tag):
                comm.send("x", 1, tag=99)
                comm.recv(0, tag=tag)
            """
        )
        assert findings == []

    def test_default_tags_match(self):
        findings = check(
            """
            def fn(comm):
                comm.send("x", 1)
                comm.recv(0)
            """
        )
        assert findings == []


class TestLexicalDTYPE101:
    # Once a lexical pattern (formerly SPMD004): the dataflow pass proves
    # these DTYPE101s, and `# noqa: SPMD004` keeps suppressing them.
    def test_narrow_array_into_lift_kernel(self):
        findings = check(
            """
            import numpy as np
            def fn(s1, s2):
                values = np.zeros((4, 4), dtype=np.int32)
                return tabulate_slice_batched(values, s1, s2, 1, 2, None)
            """
        )
        assert rules_of(findings) == ["DTYPE101"]
        assert "int32" in findings[0].message

    def test_narrow_memo_table_dtype(self):
        findings = check(
            """
            import numpy as np
            def fn():
                return DenseMemoTable(4, 4, dtype=np.int16)
            """
        )
        assert rules_of(findings) == ["DTYPE101"]

    def test_tuple_unpacked_intermediate_flagged(self):
        # The false negative the dataflow PR fixed: a narrow array bound
        # through tuple unpacking used to slip past the alias map.
        findings = check(
            """
            import numpy as np
            def fn(s1, s2):
                memo, aux = np.zeros((4, 4), dtype=np.int16), np.zeros(4)
                table = memo
                return tabulate_slice_batched(table, s1, s2, 1, 2, None)
            """
        )
        assert rules_of(findings) == ["DTYPE101"]
        assert "int16" in findings[0].message

    def test_legacy_noqa_token_still_suppresses(self):
        findings = check(
            """
            import numpy as np
            def fn(s1, s2):
                values = np.zeros((4, 4), dtype=np.int32)
                return tabulate_slice_batched(values, s1, s2, 1, 2, None)  # noqa: SPMD004
            """
        )
        assert findings == []

    def test_int64_clean(self):
        findings = check(
            """
            import numpy as np
            def fn(s1, s2):
                values = np.zeros((4, 4), dtype=np.int64)
                return tabulate_slice_batched(values, s1, s2, 1, 2, None)
            """
        )
        assert findings == []

    def test_narrow_array_not_reaching_kernel_clean(self):
        findings = check(
            """
            import numpy as np
            def fn():
                flags = np.zeros(8, dtype=np.uint8)
                return flags.sum()
            """
        )
        assert findings == []


class TestARCH001:
    def test_tracer_construction_flagged(self):
        findings = check(
            """
            from repro.obs.tracer import Tracer
            def fn():
                return Tracer()
            """
        )
        assert rules_of(findings) == ["ARCH001"]
        assert "Tracer" in findings[0].message

    def test_launcher_and_communicator_flagged(self):
        findings = check(
            """
            def fn(fn2, clock, model):
                results = run_threaded(fn2, 4)
                comm = SelfCommunicator(clock, model)
                return results, comm
            """
        )
        assert rules_of(findings) == ["ARCH001", "ARCH001"]

    def test_shm_memo_construction_flagged(self):
        findings = check(
            """
            def fn(comm):
                return DenseMemoTable.wrap(comm.allocate_shared((4, 4)))
            """
        )
        assert sorted(set(rules_of(findings))) == ["ARCH001"]

    def test_substrate_modules_exempt(self):
        source = """
            def fn(fn2):
                return run_threaded(fn2, 4)
        """
        for path in (
            "src/repro/mpi/inprocess.py",
            "src/repro/obs/tracer.py",
            "src/repro/check/sanitizer.py",
        ):
            assert check(source, path=path) == []

    def test_context_module_not_exempt(self):
        findings = check(
            """
            def fn():
                return Tracer()
            """,
            path="src/repro/runtime/context.py",
        )
        assert rules_of(findings) == ["ARCH001"]

    def test_context_usage_is_clean(self):
        findings = check(
            """
            from repro.runtime.context import ExecutionContext
            def fn(rank_main):
                ctx = ExecutionContext(trace=True)
                return ctx.launch(rank_main, n_ranks=4, backend="thread")
            """
        )
        assert findings == []

    def test_noqa_suppresses(self):
        findings = check(
            """
            def fn():
                return Tracer()  # noqa: ARCH001
            """
        )
        assert findings == []


class TestSuppression:
    def test_bare_noqa(self):
        assert is_suppressed("SPMD001", "comm.barrier()  # noqa")

    def test_listed_code(self):
        line = "tracer = Tracer()  # noqa: ARCH001"
        assert is_suppressed("ARCH001", line)
        assert not is_suppressed("SPMD001", line)

    def test_multiple_codes(self):
        line = "x = 1  # noqa: SPMD001, SPMD004"
        assert is_suppressed("SPMD001", line)
        assert is_suppressed("SPMD004", line)
        assert not is_suppressed("SPMD002", line)

    def test_deprecated_alias_covers_canonical_rule(self):
        # `# noqa: SPMD004` predates the DTYPE101 rename; it must keep
        # suppressing the canonical rule so deprecation never
        # un-suppresses existing code.
        line = "t = make_table()  # noqa: SPMD004"
        assert is_suppressed("DTYPE101", line)
        assert not is_suppressed("DTYPE102", line)
        assert not is_suppressed("SPMD001", line)

    def test_noqa_filters_findings(self):
        findings = check(
            """
            def fn(comm):
                if comm.rank == 0:
                    comm.barrier()  # noqa: SPMD001
            """
        )
        assert findings == []


class TestDriver:
    def test_rule_catalog_complete(self):
        assert set(RULES) == {
            # Deprecated aliases, never emitted.
            "SPMD001",
            "SPMD002",
            "SPMD004",
            # Per-module rule.
            "ARCH001",
            # Interprocedural protocol rules.
            "SPMD101",
            "SPMD102",
            "SPMD103",
            "SPMD201",
            "SPMD202",
            "SCHED001",
            "SCHED002",
            "SCHED003",
            # Numeric dataflow rules.
            "DTYPE101",
            "DTYPE102",
            "DTYPE103",
            "SHAPE101",
            "SHAPE102",
            "SHAPE103",
            "COST001",
            "COST002",
            # Ratchet bookkeeping.
            "BASE001",
        }

    def test_finding_render_is_clickable(self):
        finding = Finding("SPMD001", "a.py", 3, 4, "boom")
        assert finding.render() == "a.py:3:4: SPMD001 boom"

    def test_run_check_clean_file(self, tmp_path):
        path = tmp_path / "ok.py"
        path.write_text("def fn(comm):\n    comm.barrier()\n")
        stream = io.StringIO()
        assert run_check([str(path)], stream=stream) == 0
        assert "OK" in stream.getvalue()

    def test_run_check_findings_and_json(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text(
            "def fn(comm):\n    if comm.rank == 0:\n        comm.barrier()\n"
        )
        stream = io.StringIO()
        assert run_check([str(path)], json_output=True, stream=stream) == 1
        payload = json.loads(stream.getvalue())
        assert payload["checked_files"] == 1
        assert payload["findings"][0]["rule"] == "SPMD101"
        assert payload["findings"][0]["line"] == 3

    def test_run_check_missing_path(self):
        stream = io.StringIO()
        assert run_check(["definitely/not/here.py"], stream=stream) == 2

    def test_run_check_undecodable_file(self, tmp_path, capsys):
        # A parse error, not a finding: exit 2 and name the file.
        path = tmp_path / "latin1.py"
        path.write_bytes(b'x = "\xff"\n')
        assert run_check([str(path)], stream=io.StringIO()) == 2
        assert f"repro.check: cannot decode {path}" in capsys.readouterr().err

    def test_shipped_tree_is_clean(self):
        # The acceptance criterion: the static pass exits 0 on src/repro.
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            "src",
            "repro",
        )
        if not os.path.isdir(src):
            pytest.skip("source tree not available (installed package)")
        stream = io.StringIO()
        assert run_check([src], stream=stream) == 0, stream.getvalue()


class TestNoqaEdgeCases:
    """The driver-level suppression semantics, beyond is_suppressed()."""

    def test_bare_noqa_suppresses_any_rule(self):
        findings = check(
            """
            def fn(comm):
                if comm.rank == 0:
                    comm.barrier()  # noqa
            """
        )
        assert findings == []

    def test_multiple_rule_ids_on_one_line(self):
        # The line violates SPMD001; a list mentioning it (among others)
        # must suppress, a list not mentioning it must not.
        suppressed = check(
            """
            def fn(comm):
                if comm.rank == 0:
                    comm.barrier()  # noqa: SPMD001, SPMD004
            """
        )
        kept = check(
            """
            def fn(comm):
                if comm.rank == 0:
                    comm.barrier()  # noqa: SPMD002,SPMD004
            """
        )
        assert suppressed == []
        assert rules_of(kept) == ["SPMD101"]

    def test_noqa_on_continuation_line(self):
        # Black puts the closing paren (and hence the trailing comment)
        # on its own line; the suppression must still cover the call,
        # which is *reported* at the statement's first line.
        findings = check(
            """
            def fn(comm):
                if comm.rank == 0:
                    comm.bcast(
                        1,
                        root=0,
                    )  # noqa: SPMD001
            """
        )
        assert findings == []

    def test_noqa_on_first_line_of_multiline_statement(self):
        findings = check(
            """
            def fn(comm):
                if comm.rank == 0:
                    comm.bcast(  # noqa: SPMD001
                        1,
                        root=0,
                    )
            """
        )
        assert findings == []

    def test_extent_cap_keeps_function_bodies_opaque(self):
        # A noqa many lines below the finding, inside the same (large)
        # enclosing statement, must NOT suppress: the extent search is
        # capped so a stray comment can't blanket a whole function.
        filler = "\n".join(f"    x{i} = {i}" for i in range(10))
        findings = check(
            "def fn(comm):\n"
            "    if comm.rank == 0:\n"
            "        comm.barrier()\n"
            + filler
            + "\n    y = 1  # noqa: SPMD001\n"
        )
        assert rules_of(findings) == ["SPMD101"]

    def test_wrong_rule_on_continuation_line_does_not_suppress(self):
        findings = check(
            """
            def fn(comm):
                if comm.rank == 0:
                    comm.bcast(
                        1,
                        root=0,
                    )  # noqa: SPMD004
            """
        )
        assert rules_of(findings) == ["SPMD101"]


BAD_SNIPPET = (
    "def fn(comm):\n    if comm.rank == 0:\n        comm.barrier()\n"
)


class TestBaseline:
    """Ratchet mode: grandfather old findings, refuse new ones."""

    def _write_bad(self, tmp_path, name="bad.py", source=BAD_SNIPPET):
        path = tmp_path / name
        path.write_text(source)
        return path

    def test_update_then_apply_is_clean(self, tmp_path):
        from repro.check.static import run_check

        bad = self._write_bad(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert run_check(
            [str(bad)], stream=io.StringIO(),
            baseline_path=str(baseline), update_baseline=True,
        ) == 0
        assert run_check(
            [str(bad)], stream=io.StringIO(), baseline_path=str(baseline),
        ) == 0

    def test_new_finding_still_fails(self, tmp_path):
        from repro.check.static import run_check

        bad = self._write_bad(tmp_path)
        baseline = tmp_path / "baseline.json"
        run_check([str(bad)], stream=io.StringIO(),
                  baseline_path=str(baseline), update_baseline=True)
        bad.write_text(
            BAD_SNIPPET
            + "def gn(comm):\n    if comm.rank == 0:\n"
            + "        comm.allreduce(1)\n"
        )
        stream = io.StringIO()
        assert run_check(
            [str(bad)], stream=stream, baseline_path=str(baseline),
        ) == 1
        out = stream.getvalue()
        assert "allreduce" in out
        assert "barrier" not in out  # grandfathered one stays hidden

    def test_stale_entry_becomes_base001(self, tmp_path):
        from repro.check.static import run_check

        bad = self._write_bad(tmp_path)
        baseline = tmp_path / "baseline.json"
        run_check([str(bad)], stream=io.StringIO(),
                  baseline_path=str(baseline), update_baseline=True)
        # Fix the finding without shrinking the baseline: ratchet fires.
        bad.write_text("def fn(comm):\n    comm.barrier()\n")
        stream = io.StringIO()
        assert run_check(
            [str(bad)], stream=stream, baseline_path=str(baseline),
        ) == 1
        assert "BASE001" in stream.getvalue()

    def test_fingerprint_survives_line_shift(self, tmp_path):
        from repro.check.static import run_check

        bad = self._write_bad(tmp_path)
        baseline = tmp_path / "baseline.json"
        run_check([str(bad)], stream=io.StringIO(),
                  baseline_path=str(baseline), update_baseline=True)
        # Insert lines above: line number moves, content does not.
        bad.write_text("import os\n\n\n" + BAD_SNIPPET)
        assert run_check(
            [str(bad)], stream=io.StringIO(), baseline_path=str(baseline),
        ) == 0

    def test_duplicate_lines_are_occurrence_counted(self, tmp_path):
        from repro.check.static import run_check

        # Two textually identical findings: the baseline must hold both
        # (occurrence suffix), and removing one must expose... nothing
        # new, but keep the other grandfathered.
        source = (
            "def fn(comm):\n    if comm.rank == 0:\n"
            "        comm.barrier()\n"
            "def gn(comm):\n    if comm.rank == 0:\n"
            "        comm.barrier()\n"
        )
        bad = self._write_bad(tmp_path, source=source)
        baseline = tmp_path / "baseline.json"
        run_check([str(bad)], stream=io.StringIO(),
                  baseline_path=str(baseline), update_baseline=True)
        assert run_check(
            [str(bad)], stream=io.StringIO(), baseline_path=str(baseline),
        ) == 0

    @pytest.mark.parametrize(
        "content", ["[1, 2]", '{"fingerprints": 5}', '{"fingerprints": [1]}']
    )
    def test_malformed_baseline_is_usage_error(self, tmp_path, capsys,
                                               content):
        bad = self._write_bad(tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(content)
        assert run_check(
            [str(bad)], stream=io.StringIO(), baseline_path=str(baseline),
        ) == 2
        assert "cannot read baseline" in capsys.readouterr().err

    def test_update_without_baseline_path_is_usage_error(self, tmp_path):
        from repro.check.static import run_check

        bad = self._write_bad(tmp_path)
        assert run_check(
            [str(bad)], stream=io.StringIO(), update_baseline=True,
        ) == 2


class TestProjectContext:
    """Tag matching (SPMD201/SPMD202) with whole-program context."""

    def test_spmd002_augassign_tag(self):
        # TAG is built up with AugAssign; the folder must track it.
        findings = check(
            """
            TAG = 0x100
            TAG += 2

            def fn(comm):
                comm.send("x", 1, tag=TAG)
                comm.recv(0, tag=0x102)
            """
        )
        assert findings == []

    def test_spmd002_augassign_mismatch_detected(self):
        findings = check(
            """
            TAG = 0x100
            TAG += 2

            def fn(comm):
                comm.send("x", 1, tag=TAG)
                comm.recv(0, tag=0x100)
            """
        )
        # Both sides are flagged: the send matches no recv, and the recv
        # matches no send.
        assert rules_of(findings) == ["SPMD201", "SPMD202"]
        assert "tag 258" in findings[0].message

    def test_spmd002_tuple_unpacking_tags(self):
        findings = check(
            """
            TAG_WORK, TAG_STOP = 5, 9

            def fn(comm):
                comm.send("x", 1, tag=TAG_WORK)
                comm.recv(0, tag=5)
                comm.send("y", 1, tag=TAG_STOP)
                comm.recv(0, tag=9)
            """
        )
        assert findings == []

    def test_spmd002_cross_module_imported_tag(self, tmp_path):
        # The constant lives in another module; analyze_project resolves
        # it through the import graph.
        from repro.check.static import analyze_project

        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "tags.py").write_text("TAG_WORK = 11\n")
        (pkg / "wire.py").write_text(
            "from pkg.tags import TAG_WORK\n"
            "\n"
            "def fn(comm):\n"
            "    comm.send('x', 1, tag=TAG_WORK)\n"
            "    comm.recv(0, tag=12)\n"
        )
        findings, _ = analyze_project([str(tmp_path)])
        assert [f.rule for f in findings] == ["SPMD201", "SPMD202"]
        assert "tag 11" in findings[0].message


class TestSuppressionTransparency:
    def test_every_shipped_noqa_is_documented(self):
        """Each # noqa in src/repro that silences a repro rule must be
        enumerated in docs/static-analysis.md with its file path — the
        suppression inventory is part of the contract, not an escape
        hatch."""
        root = os.path.dirname(
            os.path.dirname(os.path.dirname(__file__))
        )
        src = os.path.join(root, "src", "repro")
        doc_path = os.path.join(root, "docs", "static-analysis.md")
        if not os.path.isdir(src) or not os.path.isfile(doc_path):
            pytest.skip("source tree not available (installed package)")
        doc = open(doc_path, encoding="utf-8").read()
        rule_names = set(RULES)
        missing = []
        for dirpath, dirnames, filenames in os.walk(src):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in filenames:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root)
                for i, line in enumerate(
                    open(path, encoding="utf-8"), start=1
                ):
                    if "# noqa" not in line:
                        continue
                    codes = {
                        c.strip()
                        for c in line.split("# noqa", 1)[1]
                        .lstrip(":").split(",")
                    }
                    if not codes & rule_names:
                        continue  # ruff-only suppression (e.g. BLE001)
                    posix_rel = rel.replace(os.sep, "/")
                    if posix_rel not in doc:
                        missing.append(f"{posix_rel}:{i}")
        assert missing == [], (
            "undocumented repro-rule suppressions (add them to the "
            f"inventory in docs/static-analysis.md): {missing}"
        )


class TestCLI:
    def test_check_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.py"
        path.write_text(
            "def fn(comm):\n    if comm.rank == 0:\n        comm.barrier()\n"
        )
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "SPMD101" in out

    def test_check_list_rules(self, capsys):
        from repro.cli import main

        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out

    def test_both_commands_share_one_option_set(self, capsys):
        import re

        from repro.check.static import main as check_main
        from repro.cli import main

        def options(entry, argv):
            with pytest.raises(SystemExit):
                entry(argv)
            return set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))

        assert options(main, ["check", "--help"]) == options(
            check_main, ["--help"]
        )


class TestDeprecatedAliases:
    """Old lexical rule IDs keep suppressing the rules that replaced them."""

    def test_spmd001_suppresses_divergence_and_trip_count(self):
        findings = check(
            """
            def fn(comm, my_rank):
                if comm.rank == 0:
                    comm.barrier()  # noqa: SPMD001
                while my_rank < 2:
                    comm.allreduce(1)  # noqa: SPMD001
            """
        )
        assert findings == []

    def test_spmd002_suppresses_both_tag_rules(self):
        findings = check(
            """
            def fn(comm):
                comm.send("x", 1, tag=3)  # noqa: SPMD002
                comm.recv(0, tag=5)  # noqa: SPMD002
            """
        )
        assert findings == []

    def test_aliases_are_never_emitted(self):
        from repro.check.findings import DEPRECATED_RULES

        findings = check(
            """
            import numpy as np
            def fn(comm, s1, s2):
                if comm.rank == 0:
                    comm.barrier()
                comm.send("x", 1, tag=3)
                values = np.zeros((4, 4), dtype=np.int32)
                return tabulate_slice_batched(values, s1, s2, 1, 2, None)
            """
        )
        assert set(rules_of(findings)) == {"SPMD101", "SPMD201", "DTYPE101"}
        assert not set(rules_of(findings)) & set(DEPRECATED_RULES)
