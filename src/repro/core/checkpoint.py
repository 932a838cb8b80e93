"""Checkpoint/restart for long stage-one runs.

Table I's n = 1600 column runs for many minutes (hours at n = 3200 in
Python), and cluster schedulers kill jobs; a production comparison tool
needs to resume.  SRNA2's structure makes checkpointing almost free: stage
one's only cross-iteration state is the memo table ``M`` and the index of
the next outer arc — after arc ``a`` completes, every entry ``M`` will ever
need from arcs ``<= a`` is final (the same ordering argument that makes the
algorithm correct makes its prefix a valid checkpoint).

Checkpoints are ``.npz`` files carrying the memo array, the resume index
and a structure-pair digest so a checkpoint cannot silently resume against
different inputs.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from repro.core.memo import DenseMemoTable
from repro.core.slices import ENGINES, ROW_ENGINES
from repro.errors import ReproError
from repro.runtime.registry import validate_choice
from repro.structure.arcs import Structure

__all__ = ["CheckpointError", "Checkpoint", "srna2_checkpointed"]

_FORMAT_VERSION = 1


class CheckpointError(ReproError):
    """A checkpoint file is unusable for the requested resume."""


def _pair_digest(s1: Structure, s2: Structure) -> str:
    hasher = hashlib.sha256()
    for structure in (s1, s2):
        hasher.update(str(structure.length).encode())
        hasher.update(structure.lefts.tobytes())
        hasher.update(structure.rights.tobytes())
    return hasher.hexdigest()


@dataclass(frozen=True)
class Checkpoint:
    """In-memory view of a saved stage-one prefix."""

    next_arc: int
    memo_values: np.ndarray
    digest: str

    def save(self, path: str | os.PathLike) -> None:
        """Atomically write the checkpoint (write-then-rename)."""
        path = os.fspath(path)
        tmp_path = path + ".tmp"
        np.savez_compressed(
            tmp_path if tmp_path.endswith(".npz") else tmp_path,
            version=np.int64(_FORMAT_VERSION),
            next_arc=np.int64(self.next_arc),
            memo=self.memo_values,
            digest=np.frombuffer(self.digest.encode(), dtype=np.uint8),
        )
        # np.savez appends .npz to names lacking it.
        written = tmp_path if tmp_path.endswith(".npz") else tmp_path + ".npz"
        os.replace(written, path)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Checkpoint":
        path = os.fspath(path)
        try:
            with np.load(path) as payload:
                version = int(payload["version"])
                if version != _FORMAT_VERSION:
                    raise CheckpointError(
                        f"checkpoint format v{version} is not supported "
                        f"(expected v{_FORMAT_VERSION})"
                    )
                return cls(
                    next_arc=int(payload["next_arc"]),
                    memo_values=payload["memo"].copy(),
                    digest=payload["digest"].tobytes().decode(),
                )
        except (OSError, KeyError, ValueError) as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc


def srna2_checkpointed(
    s1: Structure,
    s2: Structure,
    path: str | os.PathLike,
    *,
    every: int = 64,
    engine: str = "batched",
    interrupt_after: int | None = None,
):
    """SRNA2 with periodic stage-one checkpoints at *path*.

    If *path* exists, the run resumes from it (after verifying the inputs
    match via digest).  A checkpoint is written every *every* outer arcs
    and once more when stage one completes; the file is removed after a
    successful finish.

    *interrupt_after* aborts the run with :class:`InterruptedError` after
    that many outer arcs have been processed **in this invocation** — the
    hook the failure-injection tests use to simulate preemption.

    Returns the same result object as :func:`repro.core.srna2.srna2`.
    """
    from repro.core.srna2 import SRNA2Result

    if every < 1:
        raise ValueError(f"every must be >= 1, got {every}")
    validate_choice("engine", engine)
    tabulate, tabulate_row = ENGINES[engine], ROW_ENGINES[engine]

    digest = _pair_digest(s1, s2)
    n, m = s1.length, s2.length
    memo = DenseMemoTable(n, m)
    start_arc = 0
    path = os.fspath(path)
    if os.path.exists(path):
        saved = Checkpoint.load(path)
        if saved.digest != digest:
            raise CheckpointError(
                "checkpoint was written for a different structure pair; "
                "refusing to resume"
            )
        if saved.memo_values.shape != memo.values.shape:
            raise CheckpointError(
                f"checkpoint memo shape {saved.memo_values.shape} does not "
                f"match {memo.values.shape}"
            )
        memo.values[...] = saved.memo_values
        start_arc = saved.next_arc

    values = memo.values
    inner1 = s1.inner_ranges
    lefts1 = s1.lefts.tolist()
    rights1 = s1.rights.tolist()
    all_arcs2 = np.arange(s2.n_arcs, dtype=np.int64)
    row_cols = s2.lefts + 1

    processed = 0
    for a in range(start_arc, s1.n_arcs):
        if interrupt_after is not None and processed >= interrupt_after:
            Checkpoint(a, values, digest).save(path)
            raise InterruptedError(
                f"interrupted after {processed} outer arcs (checkpoint at "
                f"arc {a} saved)"
            )
        i1, j1 = lefts1[a], rights1[a]
        r1 = (int(inner1[a, 0]), int(inner1[a, 1]))
        values[i1 + 1, row_cols] = tabulate_row(
            values, s1, s2, i1 + 1, j1 - 1, all_arcs2, r1=r1
        )
        processed += 1
        if (a + 1) % every == 0:
            Checkpoint(a + 1, values, digest).save(path)

    score = int(
        tabulate(
            values, s1, s2, 0, n - 1, 0, m - 1,
            ranges=((0, s1.n_arcs), (0, s2.n_arcs)),
        )
    )
    memo.store(0, 0, score)
    if os.path.exists(path):
        os.remove(path)
    return SRNA2Result(score, memo, None)
