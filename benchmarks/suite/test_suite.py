"""Self-test of the benchmark itself (``python -m pytest benchmarks/suite -q``).

Runs the ``--quick`` input sizes, which exist for this test only and never
back a performance claim.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(SUITE)]

import catalog  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(
    out: Path, *args: str, root: Path = ROOT
) -> tuple[int, list[str], list]:
    """Run the benchmark; (exit status, stdout lines, records written to *out*)."""
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks/suite/run.py"),
         "--seconds", "0.5", "--quick", "--out", str(out), *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    records = json.loads(out.read_text()) if out.exists() else []
    return proc.returncode, proc.stdout.splitlines(), records


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    traces = ("--trace-dir", str(tmp / "traces"))
    return {
        "untraced": bench(tmp / "untraced.json", "--seed", "3", "--trace", "0"),
        "traced": bench(tmp / "traced.json", "--seed", "3", "--trace", "1", *traces),
        "traced_again": bench(
            tmp / "again.json", "--seed", "3", "--trace", "1",
            "--workload", "rrna-pair", *traces,
        ),
    }


def test_catalog_matches_benchmark_json():
    assert SPEC["paths"] == ["benchmarks/suite"]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == catalog.WORKLOADS
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]
    } == catalog.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]
    } == catalog.PER_LAYER


@pytest.mark.parametrize("mode,section", [("untraced", "end_to_end"),
                                          ("traced", "per_layer")])
def test_every_metric_is_reported_with_its_unit(runs, mode, section):
    status, stdout, records = runs[mode]
    assert status == 0, stdout
    last = json.loads(stdout[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert [r["workload"] for r in records] == list(catalog.WORKLOADS)
    for record in records:
        for metric in SPEC[section]:
            entry = record["reported"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], float)
            assert last["metrics"][f"{record['workload']}/{metric['name']}"] == entry


def test_same_seed_repeats_inputs_and_exact_counters(runs):
    first = {r["workload"]: r for r in runs["traced"][2]}["rrna-pair"]
    again = runs["traced_again"][2][0]
    assert first["inputs_sha256"] == again["inputs_sha256"]
    assert first["plan"]["algorithm"] == "prna"
    for name in catalog.EXACT_COUNTERS:
        assert first["layer_metrics"][name] == again["layer_metrics"][name], name
    assert first["layer_metrics"]["mpi.publishes"] > 0


def test_parallel_spans_only_where_prna_runs(runs):
    for record in runs["traced"][2]:
        ranks = record["layer_metrics"]["parallel.rank_wall_s_max"]
        assert (ranks > 0) == (record["workload"] in ("worst-pair", "rrna-pair"))


@pytest.mark.parametrize("name", list(catalog.WORKLOADS))
def test_seed_determines_inputs(name):
    one = workloads.build(name, 1, quick=True).digest()
    assert workloads.build(name, 1, quick=True).digest() == one
    other = workloads.build(name, 2, quick=True).digest()
    # The contrived worst case is deterministic by construction.
    assert (other == one) == (name == "worst-pair")


def test_verifier_rejects_a_wrong_score():
    case = workloads.build("small-pairs", 1, quick=True)
    loop = workloads.run_loop(case, 0.0)
    expected = workloads.expected_scores(case)
    assert workloads.count_failures(loop, expected) == 0
    (k, score), = loop.scores[0].items()
    loop.scores[0] = {k: score + 1}
    assert workloads.count_failures(loop, expected) == 1


def test_verifier_rejects_a_misranked_query():
    case = workloads.build("search", 1, quick=True)
    loop = workloads.run_loop(case, 0.0)
    expected = workloads.expected_scores(case)
    assert workloads.count_failures(loop, expected) == 0
    case.last_hits.reverse()
    loop.ranked_first[0] = workloads.query_ranks_first(case)
    assert workloads.count_failures(loop, expected) == 1


def test_exits_nonzero_without_the_package(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(SUITE, tmp_path / "benchmarks/suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    status, stdout, _ = bench(
        tmp_path / "out.json", "--workload", "search", root=tmp_path
    )
    assert status != 0
    assert not any(line.startswith("{") for line in stdout)
