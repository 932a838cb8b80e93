"""Property-based checkpoint/restart: any preemption schedule resumes to
the bit-identical result."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import srna2_checkpointed
from repro.core.srna2 import srna2
from repro.runtime.registry import ENGINE_NAMES
from repro.structure.generators import rna_like_structure


@given(
    budgets=st.lists(
        st.integers(min_value=1, max_value=12), min_size=0, max_size=4
    ),
    every=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=50),
    engine=st.sampled_from(ENGINE_NAMES),
)
@settings(max_examples=20, deadline=None)
def test_any_preemption_schedule_resumes_identically(
    budgets, every, seed, engine, tmp_path_factory
):
    structure = rna_like_structure(90, 20, seed=seed)
    reference = srna2(structure, structure)
    path = tmp_path_factory.mktemp("ckpt") / "run.npz"
    for budget in budgets:
        try:
            result = srna2_checkpointed(
                structure, structure, path,
                every=every, interrupt_after=budget, engine=engine,
            )
            break  # finished before the interrupt budget ran out
        except InterruptedError:
            continue
    else:
        result = srna2_checkpointed(
            structure, structure, path, every=every, engine=engine
        )
    assert result.score == reference.score
    assert np.array_equal(result.memo.values, reference.memo.values)
    assert not path.exists()
