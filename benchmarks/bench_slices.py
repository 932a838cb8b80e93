"""Slice-engine microbenchmarks: the library's innermost kernel."""

import numpy as np
import pytest

from repro.core.memo import DenseMemoTable
from repro.core.slices import (
    ROW_ENGINES,
    tabulate_slice_python,
    tabulate_slice_vectorized,
    tabulate_slices_batched,
)
from repro.structure.generators import contrived_worst_case, rna_like_structure


@pytest.fixture(scope="module")
def worst_case_200():
    structure = contrived_worst_case(200)
    memo = DenseMemoTable(200, 200)
    # Pre-fill M with plausible values so the gather path is realistic.
    rng = np.random.default_rng(0)
    memo.values[...] = rng.integers(0, 50, size=memo.values.shape)
    return structure, memo


def test_vectorized_parent_slice(benchmark, worst_case_200):
    structure, memo = worst_case_200
    result = benchmark(
        lambda: tabulate_slice_vectorized(
            memo.values, structure, structure, 0, 199, 0, 199
        )
    )
    assert result > 0


def test_python_parent_slice(benchmark, worst_case_200):
    structure, memo = worst_case_200
    result = benchmark.pedantic(
        lambda: tabulate_slice_python(
            memo.values, structure, structure, 0, 199, 0, 199
        ),
        rounds=1,
        iterations=1,
    )
    assert result > 0


def test_batched_stage_one_row(benchmark):
    """One outer arc's whole batch — what SRNA2 stage one runs per arc."""
    structure = contrived_worst_case(200)
    memo = DenseMemoTable(200, 200)
    rng = np.random.default_rng(0)
    memo.values[...] = rng.integers(0, 50, size=memo.values.shape)
    arcs = np.arange(structure.n_arcs, dtype=np.int64)

    total = benchmark(
        lambda: int(
            tabulate_slices_batched(
                memo.values, structure, structure, 1, 198, arcs
            ).sum()
        )
    )
    assert total > 0


def _stage_one_rows(engine: str):
    """One row-entry call per outer arc over every S2 arc of a self-pair."""
    structure = rna_like_structure(400, 90, seed=17)
    memo = DenseMemoTable(400, 400)
    arcs = np.arange(structure.n_arcs, dtype=np.int64)
    row = ROW_ENGINES[engine]

    def run():
        total = 0
        inner = structure.inner_ranges
        for a in range(structure.n_arcs):
            arc = structure.arcs[a]
            r1 = (int(inner[a, 0]), int(inner[a, 1]))
            total += int(
                row(
                    memo.values, structure, structure,
                    arc.left + 1, arc.right - 1, arcs, r1=r1,
                ).sum()
            )
        return total

    return run, structure.n_arcs ** 2


def test_many_small_slices(benchmark):
    """Per-slice overhead: rRNA-like structures are dominated by thousands
    of small slices, not one big one.  The per-slice row entry makes one
    kernel call per arc pair."""
    run, slices = _stage_one_rows("vectorized")
    total = benchmark.pedantic(run, rounds=1, iterations=1)
    assert total >= 0
    benchmark.extra_info["slices"] = slices


def test_many_small_slices_batched(benchmark):
    """The same workload through the batched row entry — the slices of
    one outer arc advance together (the production stage-one shape)."""
    run, slices = _stage_one_rows("batched")
    total = benchmark.pedantic(run, rounds=1, iterations=1)
    assert total >= 0
    benchmark.extra_info["slices"] = slices
