"""Analytic work model."""

import pytest

from repro.perf.model import (
    PAPER_SECONDS_PER_CELL,
    WorkModel,
)
from repro.structure.generators import contrived_worst_case, sequential_arcs


class TestPaperCalibration:
    def test_constant_derivation(self):
        """spc = Table I SRNA2 time at n=1600 over (sum inside)^2 cells."""
        cells = float(sum(range(800)) ** 2)
        assert PAPER_SECONDS_PER_CELL == pytest.approx(660.696 / cells)

    def test_reproduces_table1_srna2_times(self):
        """The calibrated model must predict the *other* Table I SRNA2
        rows within ~35% (the paper's machine is only consistent with a
        single-coefficient model up to cache effects)."""
        model = WorkModel.default()
        paper = {800: 37.799, 1600: 660.696}
        for length, seconds in paper.items():
            s = contrived_worst_case(length)
            predicted = model.total_sequential_seconds(s, s)
            assert predicted == pytest.approx(seconds, rel=0.35)

    def test_stage_two_consistent_with_table3(self):
        """Table III: stage two is ~0.0034% of 37.8 s at n=800 — about
        1.3 ms.  The model's parent-slice cost must be the same order."""
        model = WorkModel.default()
        s = contrived_worst_case(800)
        stage_two = model.parent_slice_seconds(s, s)
        assert 0.0002 < stage_two < 0.01


class TestWorkModel:
    def test_row_seconds(self):
        model = WorkModel(seconds_per_cell=1.0, seconds_per_slice=0.5)
        s = contrived_worst_case(10)  # inside2 = [0,1,2,3,4]
        assert model.row_seconds(2, s.inside_count, [1, 3]) == pytest.approx(
            2 * (1 + 3) + 0.5 * 2
        )

    def test_row_seconds_empty(self):
        model = WorkModel()
        s = contrived_worst_case(10)
        assert model.row_seconds(5, s.inside_count, []) == 0.0

    def test_stage_one_equals_sum_of_rows(self):
        model = WorkModel(seconds_per_cell=1.0, seconds_per_slice=2.0)
        s = contrived_worst_case(20)
        all_columns = list(range(s.n_arcs))
        total = sum(
            model.row_seconds(int(a), s.inside_count, all_columns)
            for a in s.inside_count
        )
        assert model.stage_one_seconds(s, s) == pytest.approx(total)

    def test_sequential_structure_is_overhead_only(self):
        model = WorkModel(seconds_per_cell=1.0, seconds_per_slice=0.25)
        s = sequential_arcs(4)
        assert model.stage_one_seconds(s, s) == pytest.approx(0.25 * 16)

    def test_total_includes_all_stages(self):
        model = WorkModel.default()
        s = contrived_worst_case(100)
        assert model.total_sequential_seconds(s, s) > model.stage_one_seconds(
            s, s
        )

    def test_frozen(self):
        model = WorkModel.default()
        with pytest.raises(AttributeError):
            model.seconds_per_cell = 1.0  # type: ignore[misc]
