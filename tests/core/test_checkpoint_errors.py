"""Unusable checkpoints fail with a typed error instead of resuming."""

import pytest

from repro.core.checkpoint import Checkpoint, CheckpointError, srna2_checkpointed
from repro.core.srna2 import srna2
from repro.structure.generators import contrived_worst_case


@pytest.fixture
def saved(tmp_path):
    """A real mid-stage-one checkpoint of the n=40 contrived worst case."""
    structure = contrived_worst_case(40)
    path = tmp_path / "run.ckpt.npz"
    with pytest.raises(InterruptedError):
        srna2_checkpointed(structure, structure, path, every=4, interrupt_after=5)
    return structure, path


@pytest.mark.parametrize("next_arc", [10**6, 21, -1])
def test_resume_index_out_of_range_rejected(saved, next_arc):
    structure, path = saved
    checkpoint = Checkpoint.load(path)
    Checkpoint(next_arc, checkpoint.memo_values, checkpoint.digest).save(path)
    with pytest.raises(CheckpointError, match=rf"{next_arc} is outside \[0, 20\]"):
        srna2_checkpointed(structure, structure, path)


def test_resume_index_at_end_runs_stage_two(saved):
    """``next_arc == n_arcs`` is a finished stage one, not an error."""
    structure, path = saved
    digest = Checkpoint.load(path).digest
    reference = srna2(structure, structure)
    Checkpoint(structure.n_arcs, reference.memo.values, digest).save(path)
    result = srna2_checkpointed(structure, structure, path)
    assert result.score == reference.score == 20
    assert not path.exists()


@pytest.mark.parametrize(
    "truncate", [lambda data: data[: len(data) // 2], lambda data: data[:-10]],
    ids=["first-half", "last-10-bytes-cut"],
)
def test_truncated_checkpoint_rejected(saved, truncate):
    structure, path = saved
    path.write_bytes(truncate(path.read_bytes()))
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        Checkpoint.load(path)
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        srna2_checkpointed(structure, structure, path)


def test_zero_interrupt_budget_rejected(tmp_path):
    structure = contrived_worst_case(20)
    with pytest.raises(ValueError, match="interrupt_after must be >= 1"):
        srna2_checkpointed(
            structure, structure, tmp_path / "x.npz", interrupt_after=0
        )
