"""Space experiment (Section IV-C memory claim)."""

import pytest

from repro.experiments import space
from repro.structure.generators import contrived_worst_case


class TestSpaceExperiment:
    @pytest.fixture(scope="class")
    def record(self):
        return space.run(scale="quick")

    def test_srna2_quadratic(self, record):
        by_length = {row["length"]: row for row in record.rows}
        assert by_length[200]["srna2_mb_8byte"] == pytest.approx(
            4 * by_length[100]["srna2_mb_8byte"], rel=0.1
        )

    def test_dense_quartic(self, record):
        by_length = {row["length"]: row for row in record.rows}
        assert by_length[200]["dense_mb"] == pytest.approx(
            16 * by_length[100]["dense_mb"], rel=0.01
        )

    def test_measured_matches_model(self, record):
        """The measured memo allocation equals the arc-indexed model's
        table term, |A1| * |A2| * 8 bytes, exactly (the peak-slice term is
        transient)."""
        measured = [r for r in record.rows if r["measured_memo_mb"] is not None]
        assert measured
        for row in measured:
            arcs = contrived_worst_case(row["length"]).n_arcs
            assert row["measured_memo_mb"] * 1e6 == arcs * arcs * 8
            assert row["measured_memo_mb"] == pytest.approx(
                row["arc_table_mb_8byte"]
            )

    def test_paper_claim_at_1600(self):
        record = space.run(scale="default")
        row_1600 = [row for row in record.rows if row["length"] == 1600][0]
        # "about 10 MB" with the paper's 4-byte cells.
        assert 9.0 < row_1600["srna2_mb_4byte"] < 15.0
        assert row_1600["dense_mb"] > 1e6  # dense would need terabytes
