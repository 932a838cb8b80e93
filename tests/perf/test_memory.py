"""Memory footprint accounting (the paper's space claims)."""

import pytest

from repro.core.srna2 import srna2
from repro.perf.memory import MemoryFootprint, estimate_footprints
from repro.structure.generators import contrived_worst_case


class TestEstimates:
    def test_paper_10mb_claim(self):
        """Section IV-C: n = 1600 'required about 10 MB'.  With the paper's
        4-byte cells, M is 1600^2 x 4 B ~= 10.2 MB; the live parent slice
        adds ~2.6 MB."""
        s = contrived_worst_case(1600)
        footprint = estimate_footprints(s, s, itemsize=4)["srna2"]
        assert footprint.table_bytes == 1600 * 1600 * 4
        assert 9.0 < footprint.table_bytes / 1e6 < 11.0
        assert footprint.megabytes < 15.0

    def test_dense_is_terabytes_at_1600(self):
        s = contrived_worst_case(1600)
        dense = estimate_footprints(s, s)["dense"]
        assert dense.total_bytes > 1e13  # n^4 x 2 bytes ~= 13 TB

    def test_quadratic_vs_quartic_scaling(self):
        small = contrived_worst_case(100)
        large = contrived_worst_case(200)
        fp_small = estimate_footprints(small, small)
        fp_large = estimate_footprints(large, large)
        assert fp_large["srna2"].table_bytes == 4 * fp_small["srna2"].table_bytes
        assert fp_large["dense"].table_bytes == 16 * fp_small["dense"].table_bytes

    def test_prna_replicates_per_rank(self):
        s = contrived_worst_case(100)
        one = estimate_footprints(s, s, n_ranks=1)["prna"]
        four = estimate_footprints(s, s, n_ranks=4)["prna"]
        assert four.table_bytes == 4 * one.table_bytes

    def test_measured_matches_model(self):
        s = contrived_worst_case(200)
        predicted = estimate_footprints(s, s, itemsize=8)["arc_indexed"]
        result = srna2(s, s)
        assert result.memo.nbytes() == predicted.table_bytes
        assert predicted.table_bytes == s.n_arcs * s.n_arcs * 8

    def test_topdown_dominates_srna2(self):
        s = contrived_worst_case(400)
        footprints = estimate_footprints(s, s)
        assert (
            footprints["topdown"].total_bytes
            > 100 * footprints["srna2"].total_bytes
        )

    def test_footprint_properties(self):
        fp = MemoryFootprint("x", table_bytes=1_000_000, peak_slice_bytes=500_000)
        assert fp.total_bytes == 1_500_000
        assert fp.megabytes == pytest.approx(1.5)
