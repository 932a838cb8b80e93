"""Checkpoint/restart of SRNA2 stage one."""

import numpy as np
import pytest

import repro.core.slices as slices_mod
from repro.core.checkpoint import Checkpoint, CheckpointError, srna2_checkpointed
from repro.core.srna2 import srna2
from repro.structure.generators import comb_structure, contrived_worst_case


class TestUninterrupted:
    def test_matches_srna2(self, tmp_path):
        s = contrived_worst_case(40)
        path = tmp_path / "run.ckpt.npz"
        result = srna2_checkpointed(s, s, path, every=5)
        reference = srna2(s, s)
        assert result.score == reference.score
        assert np.array_equal(result.memo.values, reference.memo.values)

    def test_checkpoint_removed_on_success(self, tmp_path):
        s = comb_structure(3, 3)
        path = tmp_path / "run.ckpt.npz"
        srna2_checkpointed(s, s, path, every=2)
        assert not path.exists()

    def test_one_row_call_per_outer_arc(self, tmp_path, monkeypatch):
        """The batched engine checkpoints through its row entry: one
        batch per outer arc, and one per-slice call for the parent
        slice."""
        s = contrived_worst_case(30)
        expected = srna2(s, s).score
        calls = {"row": 0, "slice": 0}
        batched = slices_mod.tabulate_slices_batched
        per_slice = slices_mod.ENGINES["batched"]

        def row_spy(*args, **kwargs):
            calls["row"] += 1
            return batched(*args, **kwargs)

        def slice_spy(*args, **kwargs):
            calls["slice"] += 1
            return per_slice(*args, **kwargs)

        monkeypatch.setitem(slices_mod.ROW_ENGINES, "batched", row_spy)
        monkeypatch.setitem(slices_mod.ENGINES, "batched", slice_spy)
        result = srna2_checkpointed(
            s, s, tmp_path / "run.npz", every=4, engine="batched"
        )
        assert result.score == expected
        assert calls == {"row": s.n_arcs, "slice": 1}

    def test_invalid_every(self, tmp_path):
        s = comb_structure(1, 1)
        with pytest.raises(ValueError):
            srna2_checkpointed(s, s, tmp_path / "x.npz", every=0)


class TestInterruptResume:
    def test_preemption_then_resume(self, tmp_path):
        """Kill the run mid-stage-one, resume, and demand the exact result
        and memo table of an uninterrupted run."""
        s = contrived_worst_case(60)
        path = tmp_path / "run.ckpt.npz"
        with pytest.raises(InterruptedError):
            srna2_checkpointed(s, s, path, every=4, interrupt_after=11)
        assert path.exists()
        resumed = srna2_checkpointed(s, s, path, every=4)
        reference = srna2(s, s)
        assert resumed.score == reference.score == 30
        assert np.array_equal(resumed.memo.values, reference.memo.values)
        assert not path.exists()

    def test_double_preemption(self, tmp_path):
        s = contrived_worst_case(48)
        path = tmp_path / "run.ckpt.npz"
        for budget in (7, 6):
            with pytest.raises(InterruptedError):
                srna2_checkpointed(
                    s, s, path, every=3, interrupt_after=budget
                )
        result = srna2_checkpointed(s, s, path, every=3)
        assert result.score == 24

    def test_resume_skips_completed_work(self, tmp_path):
        """After an interrupt at arc k, the resume must start at the saved
        index (observable via a tiny second interrupt budget)."""
        s = contrived_worst_case(40)
        path = tmp_path / "run.ckpt.npz"
        with pytest.raises(InterruptedError):
            srna2_checkpointed(s, s, path, every=1, interrupt_after=15)
        first = Checkpoint.load(path)
        assert first.next_arc == 15
        with pytest.raises(InterruptedError):
            srna2_checkpointed(s, s, path, every=1, interrupt_after=2)
        second = Checkpoint.load(path)
        assert second.next_arc == 17


class TestSafety:
    def test_wrong_structures_rejected(self, tmp_path):
        a = contrived_worst_case(40)
        b = comb_structure(5, 4)
        path = tmp_path / "run.ckpt.npz"
        with pytest.raises(InterruptedError):
            srna2_checkpointed(a, a, path, interrupt_after=3, every=2)
        with pytest.raises(CheckpointError, match="different structure"):
            srna2_checkpointed(b, b, path)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError, match="cannot read"):
            Checkpoint.load(path)

    def test_round_trip(self, tmp_path):
        values = np.arange(12, dtype=np.int64).reshape(3, 4)
        ckpt = Checkpoint(next_arc=2, memo_values=values, digest="abc123")
        path = tmp_path / "c.npz"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.next_arc == 2
        assert loaded.digest == "abc123"
        assert np.array_equal(loaded.memo_values, values)
