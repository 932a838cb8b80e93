"""Checkpoint/restart for long stage-one runs.

Table I's n = 1600 column runs for many minutes (hours at n = 3200 in
Python), and cluster schedulers kill jobs; a production comparison tool
needs to resume.  SRNA2's structure makes checkpointing almost free: stage
one's only cross-iteration state is the memo table ``M`` and the index of
the next outer arc — after arc ``a`` completes, every entry ``M`` will ever
need from arcs ``<= a`` is final (the same ordering argument that makes the
algorithm correct makes its prefix a valid checkpoint).

Checkpoints are ``.npz`` files (format v2) carrying the arc-indexed memo
table (:class:`~repro.core.memo.ArcMemoTable`, ``|A1| x |A2|`` cells), the
resume index and a structure-pair digest so a checkpoint cannot silently
resume against different inputs.  Format v1 stored the ``n x m`` position
table and is refused.  :func:`srna2_checkpointed` runs SRNA2's stage loop
from the saved index; its per-arc hook saves and preempts.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from repro.core.instrument import Instrumentation
from repro.core.memo import ArcMemoTable
from repro.core.slices import ENGINES, ROW_ENGINES
from repro.core.srna2 import SRNA2Result, run_stages
from repro.errors import ReproError
from repro.runtime.registry import validate_choice
from repro.structure.arcs import Structure

__all__ = ["CheckpointError", "Checkpoint", "srna2_checkpointed"]

_FORMAT_VERSION = 2


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
    """In-memory view of a saved stage-one prefix.

    ``memo_values`` is the ``(|A1|, |A2|)`` arc table.
    """

    next_arc: int
    memo_values: np.ndarray
    digest: str

    def save(self, path: str | os.PathLike) -> None:
        """Atomically write the checkpoint (write-then-rename)."""
        path = os.fspath(path)
        # Ends in .npz so np.savez does not append the suffix itself.
        tmp_path = path + ".tmp.npz"
        np.savez_compressed(
            tmp_path,
            version=np.int64(_FORMAT_VERSION),
            next_arc=np.int64(self.next_arc),
            arcs=self.memo_values,
            digest=np.frombuffer(self.digest.encode(), dtype=np.uint8),
        )
        os.replace(tmp_path, path)

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
                    memo_values=payload["arcs"].copy(),
                    digest=payload["digest"].tobytes().decode(),
                )
        except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc


def srna2_checkpointed(
    s1: Structure,
    s2: Structure,
    path: str | os.PathLike,
    *,
    every: int = 64,
    engine: str = "batched",
    interrupt_after: int | None = None,
    instrumentation: Instrumentation | None = None,
) -> SRNA2Result:
    """SRNA2 with periodic stage-one checkpoints at *path*.

    If *path* exists, the run resumes from it (after verifying the inputs
    match via digest).  A checkpoint is written whenever the number of
    completed outer arcs is a multiple of *every*; the file is removed
    after a successful finish.  A *path* whose directory is missing or
    not writable raises :class:`CheckpointError` before stage one starts.

    *interrupt_after* (>= 1) saves and aborts the run with
    :class:`InterruptedError` once that many outer arcs have been processed
    **in this invocation** and stage one is unfinished — the hook the
    failure-injection tests use to simulate preemption.

    Returns the same result object as :func:`repro.core.srna2.srna2`;
    *instrumentation* counts this invocation's slices and stage times.
    """
    if every < 1:
        raise ValueError(f"every must be >= 1, got {every}")
    if interrupt_after is not None and interrupt_after < 1:
        raise ValueError(f"interrupt_after must be >= 1, got {interrupt_after}")
    validate_choice("engine", engine)

    digest = _pair_digest(s1, s2)
    memo = ArcMemoTable(s1, s2)
    start_arc = 0
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK | os.X_OK)):
        raise CheckpointError(
            f"cannot write checkpoint {path!r}: {directory!r} is not a "
            "writable directory"
        )
    if os.path.exists(path):
        saved = Checkpoint.load(path)
        if saved.digest != digest:
            raise CheckpointError(
                "checkpoint was written for a different structure pair; "
                "refusing to resume"
            )
        if saved.memo_values.shape != memo.shape:
            raise CheckpointError(
                f"checkpoint memo shape {saved.memo_values.shape} does not "
                f"match {memo.shape}"
            )
        if not 0 <= saved.next_arc <= s1.n_arcs:
            raise CheckpointError(
                f"checkpoint resume index {saved.next_arc} is outside "
                f"[0, {s1.n_arcs}]"
            )
        memo.arcs[...] = saved.memo_values
        start_arc = saved.next_arc

    def checkpoint(next_arc: int) -> None:
        processed = next_arc - start_arc
        interrupt = (
            interrupt_after is not None
            and processed >= interrupt_after
            and next_arc < s1.n_arcs
        )
        if interrupt or next_arc % every == 0:
            Checkpoint(next_arc, memo.arcs, digest).save(path)
        if interrupt:
            raise InterruptedError(
                f"interrupted after {processed} outer arcs (checkpoint at "
                f"arc {next_arc} saved)"
            )

    score = run_stages(
        memo, s1, s2, ENGINES[engine], ROW_ENGINES[engine],
        instrumentation=instrumentation, start_arc=start_arc, on_arc=checkpoint,
    )
    if os.path.exists(path):
        os.remove(path)
    return SRNA2Result(int(score), memo, instrumentation)
