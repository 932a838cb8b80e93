"""Unit tests for the name registry and its single validation point."""

import pytest

from repro.core.checkpoint import srna2_checkpointed
from repro.core.slices import ENGINES, ROW_ENGINES
from repro.core.srna2 import srna2
from repro.mpi.communicator import SelfCommunicator
from repro.parallel.managerworker import manager_worker_rank
from repro.runtime.registry import (
    ALGORITHMS,
    AUTO,
    BACKENDS,
    BATCH_ALGORITHMS,
    ENGINE_NAMES,
    PARALLEL_ALGORITHMS,
    PARTITIONER_NAMES,
    SEQUENTIAL_ALGORITHMS,
    engine_applies,
    validate_choice,
)
from repro.scheduling.partition import PARTITIONERS
from repro.structure.dotbracket import from_dotbracket


class TestCatalogs:
    def test_algorithms_partition(self):
        assert ALGORITHMS == SEQUENTIAL_ALGORITHMS + PARALLEL_ALGORITHMS
        assert "srna2" in SEQUENTIAL_ALGORITHMS
        assert "prna" in PARALLEL_ALGORITHMS
        assert not set(SEQUENTIAL_ALGORITHMS) & set(PARALLEL_ALGORITHMS)

    def test_batch_algorithms_are_sequential(self):
        # solve_batch parallelizes across pairs; per-pair runs stay
        # sequential by construction.
        assert set(BATCH_ALGORITHMS) <= set(SEQUENTIAL_ALGORITHMS)

    def test_engine_names_mirror_implementations(self):
        assert ENGINE_NAMES == ("batched", "python", "vectorized")
        assert ENGINE_NAMES == tuple(sorted(ENGINES))
        assert ENGINE_NAMES == tuple(sorted(ROW_ENGINES))

    def test_partitioner_names_mirror_implementations(self):
        assert PARTITIONER_NAMES == tuple(sorted(PARTITIONERS))

    def test_backends(self):
        assert BACKENDS == ("self", "thread", "process")

    def test_engine_applies(self):
        assert engine_applies("srna2")
        assert engine_applies("prna")
        assert not engine_applies("topdown")
        assert not engine_applies("dense")
        assert not engine_applies("srna1")


class TestValidateChoice:
    def test_valid_value_returned_unchanged(self):
        assert validate_choice("algorithm", "srna2") == "srna2"
        assert validate_choice("engine", "batched") == "batched"

    def test_auto_requires_allow_auto(self):
        assert validate_choice("algorithm", AUTO, allow_auto=True) == AUTO
        with pytest.raises(ValueError, match="unknown algorithm 'auto'"):
            validate_choice("algorithm", AUTO)

    def test_unknown_value_lists_choices(self):
        with pytest.raises(ValueError) as excinfo:
            validate_choice("backend", "mpi")
        message = str(excinfo.value)
        assert "unknown backend 'mpi'" in message
        for backend in BACKENDS:
            assert repr(backend) in message

    def test_did_you_mean_suggestion(self):
        with pytest.raises(ValueError, match="did you mean 'batched'"):
            validate_choice("engine", "bathced")
        with pytest.raises(ValueError, match="did you mean 'srna2'"):
            validate_choice("algorithm", "snra2")

    @pytest.mark.parametrize(
        "run",
        [
            lambda s, tmp: srna2(s, s, engine="bathced"),
            lambda s, tmp: srna2_checkpointed(
                s, s, tmp / "run.npz", engine="bathced"
            ),
            lambda s, tmp: manager_worker_rank(
                SelfCommunicator(), s, s, engine="bathced"
            ),
        ],
        ids=["srna2", "srna2_checkpointed", "manager_worker_rank"],
    )
    def test_entry_points_share_engine_validation(self, run, tmp_path):
        s = from_dotbracket("(())")
        with pytest.raises(ValueError, match="did you mean 'batched'"):
            run(s, tmp_path)

    def test_no_suggestion_for_garbage(self):
        with pytest.raises(ValueError) as excinfo:
            validate_choice("engine", "zzzzzzzz")
        assert "did you mean" not in str(excinfo.value)

    def test_explicit_choices_override(self):
        with pytest.raises(ValueError, match="unknown batch algorithm"):
            validate_choice(
                "batch algorithm", "prna", choices=BATCH_ALGORITHMS
            )
