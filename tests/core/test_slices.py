"""Slice tabulation engines: cross-checks against the dense table."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.dense import dense_table
from repro.core.instrument import Instrumentation
from repro.core.memo import ArcMemoTable
from repro.core.slices import (
    ENGINES,
    SliceTable,
    arc_range_in,
    tabulate_slice_python,
    tabulate_slice_vectorized,
)
from repro.core.srna2 import srna2
from repro.structure.arcs import Structure
from repro.structure.dotbracket import from_dotbracket
from repro.structure.generators import contrived_worst_case
from tests.conftest import make_random_pair, structure_pairs


class TestArcRangeIn:
    def test_full_interval(self):
        s = from_dotbracket("(())()")
        assert arc_range_in(s, 0, 5) == (0, 3)

    def test_empty_interval(self):
        s = from_dotbracket("()")
        assert arc_range_in(s, 3, 2) == (0, 0)

    def test_under_arc(self):
        s = from_dotbracket("((()))")
        # Under the outermost arc: the two inner arcs.
        assert arc_range_in(s, 1, 4) == (0, 2)

    def test_straddled_interval_rejected(self):
        from repro.errors import StructureError

        s = from_dotbracket("(())")
        # Interval [1, 3]: arc (0, 3) ends inside but starts before it.
        with pytest.raises(StructureError, match="straddled"):
            arc_range_in(s, 1, 3)


class TestEnginesAgree:
    @pytest.mark.parametrize("seed", range(20))
    def test_parent_slice_both_engines(self, seed):
        s1, s2 = make_random_pair(seed)
        # Use SRNA2 to populate child results first (both engines).
        res_vec = srna2(s1, s2, engine="vectorized")
        res_py = srna2(s1, s2, engine="python")
        assert res_vec.score == res_py.score
        assert np.array_equal(res_vec.memo.values, res_py.memo.values)

    def test_keep_table_matches_result(self):
        s = contrived_worst_case(12)
        run = srna2(s, s)
        table = tabulate_slice_vectorized(
            run.memo.arcs, s, s, 0, 11, 0, 11, keep_table=True
        )
        assert isinstance(table, SliceTable)
        assert table.result == run.score

    def test_empty_slice(self):
        s = from_dotbracket("....")
        memo = ArcMemoTable(s, s)
        for engine in ENGINES.values():
            assert engine(memo.arcs, s, s, 0, 3, 0, 3) == 0

    def test_empty_slice_keep_table(self):
        s = from_dotbracket("..")
        memo = ArcMemoTable(s, s)
        table = tabulate_slice_vectorized(
            memo.arcs, s, s, 0, 1, 0, 1, keep_table=True
        )
        assert table.result == 0
        assert table.value_at(1, 1) == 0


class TestSliceValuesAgainstDense:
    """The compressed slice must reproduce F cell-for-cell.

    For the parent slice of (s1, s2), SliceTable.value_at(p1, p2) must equal
    the dense table's F[0, p1, 0, p2] at *every* position pair — this pins
    the endpoint-compression argument (values only change at arc right
    endpoints) to the recurrence itself.
    """

    @pytest.mark.parametrize("seed", range(15))
    def test_parent_slice_cellwise(self, seed):
        s1, s2 = make_random_pair(seed, max_len=14)
        if s1.length == 0 or s2.length == 0:
            return
        run = srna2(s1, s2)
        table = tabulate_slice_vectorized(
            run.memo.arcs, s1, s2,
            0, s1.length - 1, 0, s2.length - 1,
            keep_table=True,
        )
        dense = dense_table(s1, s2)
        grid = table.values_at(
            np.arange(s1.length)[:, None], np.arange(s2.length)[None, :]
        )
        assert np.array_equal(grid, dense[0, :, 0, :]), seed

    def test_python_engine_cellwise(self):
        s1, s2 = make_random_pair(3, max_len=12)
        if s1.length == 0 or s2.length == 0:
            pytest.skip("degenerate draw")
        run = srna2(s1, s2, engine="python")
        table = tabulate_slice_python(
            run.memo.arcs, s1, s2,
            0, s1.length - 1, 0, s2.length - 1,
            keep_table=True,
        )
        dense = dense_table(s1, s2)
        grid = table.values_at(
            np.arange(s1.length)[:, None], np.arange(s2.length)[None, :]
        )
        assert np.array_equal(grid, dense[0, :, 0, :])


class TestSliceProperties:
    @given(structure_pairs(max_arcs=6))
    @settings(max_examples=40, deadline=None)
    def test_rows_monotone(self, pair):
        """Slice values are non-decreasing along rows and columns."""
        s1, s2 = pair
        if s1.length == 0 or s2.length == 0:
            return
        run = srna2(s1, s2)
        table = tabulate_slice_vectorized(
            run.memo.arcs, s1, s2,
            0, s1.length - 1, 0, s2.length - 1,
            keep_table=True,
        )
        rows = table.rows
        assert (np.diff(rows, axis=0) >= 0).all()
        assert (np.diff(rows, axis=1) >= 0).all()

    def test_instrumentation_cell_count(self):
        s = contrived_worst_case(10)  # 5 arcs, fully nested
        memo = ArcMemoTable(s, s)
        inst = Instrumentation()
        tabulate_slice_vectorized(
            memo.arcs, s, s, 0, 9, 0, 9, instrumentation=inst
        )
        assert inst.slices_tabulated == 1
        assert inst.cells_tabulated == 25  # 5 x 5 arc pairs
