"""Slice engines: cell-for-cell parity of the per-slice and row entries.

The batched engine is the production default, so these tests pin its
contract hard: every per-slice kernel must produce bit-identical slice
tables on the same inputs — including empty, arcless, and single-arc
degenerate cases — and every row entry must agree with per-slice
tabulation by the reference engine for arbitrary ownership subsets,
chunked gathers, and the non-integer-dtype fallback.
"""

import numpy as np
import pytest
from hypothesis import given, settings

import repro.core.slices as slices_mod
from repro.core.instrument import Instrumentation
from repro.core.memo import DenseMemoTable
from repro.core.slices import (
    ENGINES,
    ROW_ENGINES,
    tabulate_slice_python,
    tabulate_slice_vectorized,
    tabulate_slices_batched,
)
from repro.core.srna2 import srna2
from repro.structure.arcs import Structure
from repro.structure.dotbracket import from_dotbracket
from repro.structure.generators import (
    comb_structure,
    contrived_worst_case,
    rna_like_structure,
)
from tests.conftest import make_random_pair, structure_pairs


def _populated_memo(s1: Structure, s2: Structure) -> np.ndarray:
    """A memo table filled by the reference engine (stage one included)."""
    return srna2(s1, s2, engine="vectorized").memo.values


def _child_tables(s1, s2, memo_values, engine, b):
    """Tabulate S2 arc *b*'s child slices for every S1 arc with *engine*."""
    tables = []
    for a in range(s1.n_arcs):
        i1, j1 = int(s1.lefts[a]), int(s1.rights[a])
        i2, j2 = int(s2.lefts[b]), int(s2.rights[b])
        tables.append(
            engine(
                memo_values, s1, s2, i1 + 1, j1 - 1, i2 + 1, j2 - 1,
                keep_table=True,
            )
        )
    return tables


class TestAllEnginesAgree:
    """Every engine produces the same memo table, score, and slice cells."""

    @given(structure_pairs(max_arcs=6))
    @settings(max_examples=50, deadline=None)
    def test_srna2_end_to_end(self, pair):
        s1, s2 = pair
        runs = {name: srna2(s1, s2, engine=name) for name in ENGINES}
        scores = {name: run.score for name, run in runs.items()}
        assert len(set(scores.values())) == 1, scores
        reference = runs["python"].memo.values
        for name, run in runs.items():
            assert np.array_equal(run.memo.values, reference), name

    @given(structure_pairs(max_arcs=5))
    @settings(max_examples=30, deadline=None)
    def test_parent_slice_cell_for_cell(self, pair):
        s1, s2 = pair
        if s1.length == 0 or s2.length == 0:
            return
        memo = _populated_memo(s1, s2)
        tables = {
            name: engine(
                memo, s1, s2, 0, s1.length - 1, 0, s2.length - 1,
                keep_table=True,
            )
            for name, engine in ENGINES.items()
        }
        reference = tables["python"].rows
        for name, table in tables.items():
            assert np.array_equal(table.rows, reference), name

    @pytest.mark.parametrize("seed", range(12))
    def test_child_slices_cell_for_cell(self, seed):
        s1, s2 = make_random_pair(seed)
        if s1.n_arcs == 0 or s2.n_arcs == 0:
            return
        memo = _populated_memo(s1, s2)
        for b in range(s2.n_arcs):
            per_engine = {
                name: _child_tables(s1, s2, memo, engine, b)
                for name, engine in ENGINES.items()
            }
            for a in range(s1.n_arcs):
                reference = per_engine["python"][a].rows
                for name in ENGINES:
                    assert np.array_equal(
                        per_engine[name][a].rows, reference
                    ), (seed, name, a, b)

    def test_empty_structures(self):
        empty = Structure(0, ())
        memo = DenseMemoTable(0, 0)
        for name, engine in ENGINES.items():
            assert engine(memo.values, empty, empty, 0, -1, 0, -1) == 0, name

    def test_arcless_structures(self):
        s = from_dotbracket("....")
        memo = DenseMemoTable(4, 4)
        for name, engine in ENGINES.items():
            assert engine(memo.values, s, s, 0, 3, 0, 3) == 0, name

    def test_single_arc(self):
        s = from_dotbracket("(..)")
        memo = _populated_memo(s, s)
        expected = [engine(memo, s, s, 0, 3, 0, 3) for engine in ENGINES.values()]
        assert len(set(expected)) == 1
        assert expected[0] == 1


def _per_slice_reference(memo, s1, s2, i1, j1, arcs2):
    """The row a row entry must return: one python-engine call per arc."""
    return [
        tabulate_slice_python(
            memo, s1, s2, i1, j1,
            int(s2.lefts[b]) + 1, int(s2.rights[b]) - 1,
        )
        for b in arcs2
    ]


class TestBatchAPI:
    """Every row entry against per-slice tabulation."""

    @pytest.mark.parametrize("seed", range(10))
    def test_full_batch_matches_per_slice(self, seed):
        s1, s2 = make_random_pair(seed)
        if s1.n_arcs == 0 or s2.n_arcs == 0:
            return
        memo = _populated_memo(s1, s2)
        all_arcs2 = np.arange(s2.n_arcs, dtype=np.int64)
        for a in range(s1.n_arcs):
            i1, j1 = int(s1.lefts[a]), int(s1.rights[a])
            expected = _per_slice_reference(
                memo, s1, s2, i1 + 1, j1 - 1, all_arcs2
            )
            for name, row in ROW_ENGINES.items():
                got = row(memo, s1, s2, i1 + 1, j1 - 1, all_arcs2)
                assert got.tolist() == expected, (seed, a, name)

    @pytest.mark.parametrize("seed", range(8))
    def test_ownership_subsets(self, seed):
        """A row over any arc subset (a rank's partition) agrees with
        per-slice results — the property PRNA's owned-column loop relies
        on."""
        s1 = rna_like_structure(40, 9, seed=seed)
        s2 = rna_like_structure(44, 10, seed=seed + 100)
        if s1.n_arcs == 0 or s2.n_arcs == 0:
            pytest.skip("degenerate draw")
        memo = _populated_memo(s1, s2)
        rng = np.random.default_rng(seed)
        subset = np.flatnonzero(rng.random(s2.n_arcs) < 0.5)
        if subset.size == 0:
            subset = np.array([0], dtype=np.int64)
        a = int(rng.integers(0, s1.n_arcs))
        i1, j1 = int(s1.lefts[a]), int(s1.rights[a])
        expected = _per_slice_reference(memo, s1, s2, i1 + 1, j1 - 1, subset)
        for name, row in ROW_ENGINES.items():
            got = row(memo, s1, s2, i1 + 1, j1 - 1, subset)
            assert got.tolist() == expected, (seed, a, name)

    def test_empty_batch(self):
        s = contrived_worst_case(8)
        memo = DenseMemoTable(8, 8)
        for name, row in ROW_ENGINES.items():
            got = row(memo.values, s, s, 1, 6, [])
            assert got.shape == (0,), name

    def test_rowless_interval(self):
        """An S1 interval with no arcs yields all zeros (empty slices)."""
        s1 = from_dotbracket("()....")
        s2 = contrived_worst_case(8)
        memo = DenseMemoTable(6, 8)
        for name, row in ROW_ENGINES.items():
            got = row(memo.values, s1, s2, 2, 5, np.arange(s2.n_arcs))
            assert (got == 0).all(), name

    def test_empty_slices_interleaved(self):
        """Arcs with empty interiors — `()` — sit between non-empty ones;
        their results must be 0 while neighbours are unaffected."""
        s1 = contrived_worst_case(12)
        s2 = from_dotbracket("()((..))()(..)")
        memo = _populated_memo(s1, s2)
        got = tabulate_slices_batched(
            memo, s1, s2, 1, 10, np.arange(s2.n_arcs)
        )
        expected = [
            tabulate_slice_vectorized(
                memo, s1, s2, 1, 10,
                int(s2.lefts[b]) + 1, int(s2.rights[b]) - 1,
            )
            for b in range(s2.n_arcs)
        ]
        assert got.tolist() == expected

    def test_chunked_gather_matches(self, monkeypatch):
        """Forcing tiny gather chunks must not change any result."""
        s1 = contrived_worst_case(20)
        s2 = comb_structure(4, 3)
        memo = _populated_memo(s1, s2)
        full = tabulate_slices_batched(
            memo, s1, s2, 1, 18, np.arange(s2.n_arcs)
        )
        monkeypatch.setattr(slices_mod, "_MAX_GATHER_ELEMENTS", 4)
        chunked = tabulate_slices_batched(
            memo, s1, s2, 1, 18, np.arange(s2.n_arcs)
        )
        assert np.array_equal(full, chunked)

    def test_float_memo_falls_back(self):
        """Non-integer memo dtypes take the per-slice fallback but still
        return correct values."""
        s = contrived_worst_case(12)
        memo = _populated_memo(s, s).astype(np.float64)
        got = tabulate_slices_batched(memo, s, s, 1, 10, np.arange(s.n_arcs))
        expected = [
            tabulate_slice_vectorized(
                memo, s, s, 1, 10,
                int(s.lefts[b]) + 1, int(s.rights[b]) - 1,
            )
            for b in range(s.n_arcs)
        ]
        assert got.tolist() == expected

    def test_batch_instrumentation_matches_per_slice_totals(self):
        s = contrived_worst_case(14)
        memo = _populated_memo(s, s)
        inst_batch = Instrumentation()
        tabulate_slices_batched(
            memo, s, s, 1, 12, np.arange(s.n_arcs),
            instrumentation=inst_batch,
        )
        inst_single = Instrumentation()
        for b in range(s.n_arcs):
            tabulate_slice_vectorized(
                memo, s, s, 1, 12,
                int(s.lefts[b]) + 1, int(s.rights[b]) - 1,
                instrumentation=inst_single,
            )
        assert inst_batch.slices_tabulated == inst_single.slices_tabulated
        assert inst_batch.cells_tabulated == inst_single.cells_tabulated


class TestValuesAt:
    """Vectorized slice reads (the backtracer's bulk lookup)."""

    def test_matches_scalar_value_at(self):
        s1, s2 = make_random_pair(5, max_len=14)
        if s1.length == 0 or s2.length == 0:
            pytest.skip("degenerate draw")
        memo = _populated_memo(s1, s2)
        table = tabulate_slice_vectorized(
            memo, s1, s2, 0, s1.length - 1, 0, s2.length - 1, keep_table=True
        )
        p1s = np.arange(s1.length)[:, None]
        p2s = np.arange(s2.length)[None, :]
        grid = table.values_at(p1s, p2s)
        assert grid.shape == (s1.length, s2.length)
        for p1 in range(s1.length):
            for p2 in range(s2.length):
                assert int(grid[p1, p2]) == table.value_at(p1, p2)

    def test_scalar_inputs(self):
        s = contrived_worst_case(8)
        memo = _populated_memo(s, s)
        table = tabulate_slice_vectorized(
            memo, s, s, 0, 7, 0, 7, keep_table=True
        )
        assert int(table.values_at(7, 7)) == table.value_at(7, 7)
