"""Memoization tables."""

import numpy as np
import pytest

from repro.core.memo import (
    KEY_NOT_FOUND,
    ArcMemoTable,
    DenseMemoTable,
    SparseMemoTable,
)
from repro.core.srna2 import srna2
from repro.structure.dotbracket import from_dotbracket
from repro.structure.generators import rna_like_structure


class TestKeyNotFound:
    def test_singleton(self):
        from repro.core.memo import _KeyNotFound

        assert _KeyNotFound() is KEY_NOT_FOUND

    def test_falsy_and_repr(self):
        assert not KEY_NOT_FOUND
        assert repr(KEY_NOT_FOUND) == "KEY_NOT_FOUND"


class TestDenseMemoTable:
    def test_store_lookup(self):
        memo = DenseMemoTable(4, 5)
        memo.store(1, 2, 7)
        assert memo.lookup(1, 2) == 7
        assert memo.values[1, 2] == 7

    def test_without_tracking_zero_default(self):
        memo = DenseMemoTable(3, 3)
        assert memo.lookup(0, 0) == 0  # dense default, no sentinel

    def test_with_tracking_sentinel(self):
        memo = DenseMemoTable(3, 3, track_known=True)
        assert memo.lookup(0, 0) is KEY_NOT_FOUND
        memo.store(0, 0, 0)
        assert memo.lookup(0, 0) == 0

    def test_zero_dimensions(self):
        memo = DenseMemoTable(0, 0)
        assert memo.shape == (1, 1)  # padded so indexing never fails

    def test_row_view_writable(self):
        memo = DenseMemoTable(3, 4)
        row = memo.row(1)
        row[:] = 9
        assert (memo.values[1] == 9).all()

    def test_nbytes(self):
        plain = DenseMemoTable(10, 10)
        tracked = DenseMemoTable(10, 10, track_known=True)
        assert tracked.nbytes() > plain.nbytes() > 0

    def test_dtype(self):
        memo = DenseMemoTable(2, 2, dtype=np.int32)
        assert memo.values.dtype == np.int32


class TestSparseMemoTable:
    def test_store_lookup(self):
        memo = SparseMemoTable(4, 4)
        assert memo.lookup(2, 2) is KEY_NOT_FOUND
        memo.store(2, 2, 5)
        assert memo.lookup(2, 2) == 5
        assert len(memo) == 1

    def test_values_array_mirrors_store(self):
        memo = SparseMemoTable(4, 4)
        memo.store(1, 3, 8)
        assert memo.values[1, 3] == 8
        assert memo.values[0, 0] == 0

    def test_nbytes_grows(self):
        memo = SparseMemoTable(4, 4)
        before = memo.nbytes()
        memo.store(0, 1, 2)
        assert memo.nbytes() > before


class TestArcMemoTable:
    def test_shape_and_nbytes(self):
        s1 = from_dotbracket("(()).(.)")
        s2 = from_dotbracket("((.))")
        memo = ArcMemoTable(s1, s2)
        assert memo.shape == (3, 2)
        assert memo.nbytes() == 3 * 2 * 8
        assert memo.score == 0

    def test_positions_layout(self):
        s1 = from_dotbracket("(()).(.)")  # lefts 0, 1, 5
        s2 = from_dotbracket("((.))")  # lefts 0, 1 (right-endpoint order 1, 0)
        memo = ArcMemoTable(s1, s2)
        memo.arcs[...] = np.arange(6).reshape(3, 2) + 1
        memo.score = 9
        values = memo.values
        assert values.shape == (8, 5)
        assert values[0, 0] == 9
        for a1, l1 in enumerate(s1.lefts):
            for a2, l2 in enumerate(s2.lefts):
                assert values[l1 + 1, l2 + 1] == memo.arcs[a1, a2]
        assert int(values.sum()) == 9 + int(memo.arcs.sum())

    def test_values_is_an_expansion(self):
        s = from_dotbracket("(())")
        memo = ArcMemoTable(s, s)
        memo.values[1, 1] = 5
        assert not memo.arcs.any()

    def test_from_positions_round_trip(self):
        s1 = rna_like_structure(60, 14, seed=1)
        s2 = rna_like_structure(50, 12, seed=2)
        run = srna2(s1, s2)
        back = ArcMemoTable.from_positions(run.memo.values, s1, s2)
        assert back.score == run.score
        assert np.array_equal(back.arcs, run.memo.arcs)

    def test_wrap_checks_shape(self):
        s = from_dotbracket("(())")
        with pytest.raises(ValueError, match="expected"):
            ArcMemoTable.wrap(np.zeros((3, 2), dtype=np.int64), s, s)
        table = ArcMemoTable.wrap(np.zeros((2, 2), dtype=np.int64), s, s)
        assert table.shape == (2, 2)

    def test_arcless_structures(self):
        empty = from_dotbracket("")
        s = from_dotbracket("(.)")
        memo = ArcMemoTable(empty, s)
        assert memo.shape == (0, 1)
        assert memo.nbytes() == 0
        assert memo.values.shape == (1, 3)
