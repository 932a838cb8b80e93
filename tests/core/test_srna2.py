"""SRNA2: the two-stage algorithm and its ordering guarantees."""

import numpy as np
import pytest

from repro.core.dense import dense_mcos
from repro.core.instrument import Instrumentation
from repro.core.srna1 import srna1
from repro.core.srna2 import srna2
from repro.structure.arcs import Structure
from repro.structure.generators import (
    comb_structure,
    contrived_worst_case,
    rna_like_structure,
    sequential_arcs,
)
from tests.conftest import make_random_pair


class TestCorrectness:
    def test_empty(self):
        assert srna2(Structure(0, ()), Structure(0, ())).score == 0
        assert srna2(Structure(5, ()), Structure(5, ())).score == 0

    def test_self_comparison(self, zoo_structure):
        assert srna2(zoo_structure, zoo_structure).score == zoo_structure.n_arcs

    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_dense(self, seed):
        s1, s2 = make_random_pair(seed)
        assert srna2(s1, s2).score == dense_mcos(s1, s2)

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_srna1(self, seed):
        s1, s2 = make_random_pair(seed, max_len=30)
        assert srna2(s1, s2).score == srna1(s1, s2).score

    def test_engines_identical_tables(self):
        s = comb_structure(3, 5)
        vec = srna2(s, s, engine="vectorized")
        py = srna2(s, s, engine="python")
        assert vec.score == py.score
        assert np.array_equal(vec.memo.values, py.memo.values)

    def test_unknown_engine(self):
        s = sequential_arcs(2)
        with pytest.raises(ValueError, match="unknown engine 'fortran'"):
            srna2(s, s, engine="fortran")

    def test_int32_dtype_option(self):
        """4-byte cells (the paper's layout) give identical results at half
        the memory — and exactly the §IV-C '10 MB' at n=1600."""
        s = rna_like_structure(150, 35, seed=12)
        wide = srna2(s, s)
        narrow = srna2(s, s, dtype=np.int32)
        assert narrow.score == wide.score
        assert np.array_equal(
            narrow.memo.values.astype(np.int64), wide.memo.values
        )
        assert narrow.memo.nbytes() * 2 == wide.memo.nbytes()

    def test_asymmetric_structures(self):
        a = contrived_worst_case(30)
        b = rna_like_structure(60, 14, seed=4)
        assert srna2(a, b).score == srna2(b, a).score == dense_mcos(a, b)


class TestStageStructure:
    def test_memo_entry_per_arc_pair(self):
        """Stage one writes M[i1+1][i2+1] for every arc pair."""
        s = comb_structure(2, 3)
        result = srna2(s, s)
        values = result.memo.values
        for a1 in s.arcs:
            for a2 in s.arcs:
                expected = srna2(
                    s.restricted_to(a1.left + 1, a1.right - 1),
                    s.restricted_to(a2.left + 1, a2.right - 1),
                ).score
                assert values[a1.left + 1, a2.left + 1] == expected

    def test_score_stored_at_origin(self):
        s = contrived_worst_case(20)
        result = srna2(s, s)
        assert result.memo.values[0, 0] == result.score == 10

    def test_stage_ordering_is_sound(self):
        """Outer 'by increasing j1' order: every memo row a slice reads
        belongs to an arc with a strictly smaller right endpoint — i.e.,
        the memo dependency matrix is strictly lower-triangular."""
        from repro.analysis.depgraph import memo_dependency_matrix

        for structure in (
            contrived_worst_case(30),
            comb_structure(3, 4),
            rna_like_structure(120, 30, seed=2),
        ):
            matrix = memo_dependency_matrix(structure, structure)
            assert (np.triu(matrix) == 0).all()

    def test_instrumentation_slice_count(self):
        s = comb_structure(2, 2)  # 4 arcs
        inst = Instrumentation()
        srna2(s, s, instrumentation=inst)
        # Stage one: 4 x 4 = 16 child slices; stage two: the parent slice.
        assert inst.slices_tabulated == 17

    def test_stage_times_recorded(self):
        s = contrived_worst_case(40)
        inst = Instrumentation()
        srna2(s, s, instrumentation=inst)
        times = inst.stage_times
        assert times.preprocessing > 0
        assert times.stage_one > 0
        assert times.stage_two > 0
        shares = times.percentages()
        assert abs(sum(shares.values()) - 100.0) < 1e-9

    def test_stage_one_dominates_worst_case(self):
        """Table III's qualitative claim at a small size."""
        s = contrived_worst_case(100)
        inst = Instrumentation()
        srna2(s, s, instrumentation=inst)
        assert inst.stage_times.percentages()["stage_one"] > 95.0
