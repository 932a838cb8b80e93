"""Property-based PRNA coverage: random structures, world sizes,
partitioners — parallel tables must always equal sequential SRNA2's."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.srna2 import srna2
from repro.parallel.prna import prna
from tests.conftest import structure_pairs


@given(
    pair=structure_pairs(max_arcs=6),
    n_ranks=st.integers(min_value=1, max_value=4),
    partitioner=st.sampled_from(["greedy", "block", "cyclic"]),
)
@settings(max_examples=25, deadline=None)
def test_prna_always_matches_srna2(pair, n_ranks, partitioner):
    s1, s2 = pair
    reference = srna2(s1, s2)
    result = prna(
        s1, s2, n_ranks,
        backend="thread", partitioner=partitioner, validate=True,
    )
    assert result.score == reference.score
    assert np.array_equal(result.memo.values, reference.memo.values)

