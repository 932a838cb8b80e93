"""Process-backed communicator — real parallelism across the GIL.

Each rank is an OS process (``multiprocessing``, fork start method); every
ordered pair of ranks shares a duplex pipe, so point-to-point messages
travel without a central broker.  Generic collectives are implemented as a
gather-to-0 / broadcast star over the pipes, while the NumPy
:meth:`Allreduce` runs a genuine recursive-doubling exchange
(:mod:`repro.mpi.reduce_algos`) — the same algorithm an MPI library would
use — so the paper's communication pattern is exercised for real.

Buffers living inside a segment from :meth:`ProcessCommunicator
.allocate_shared` take a **zero-copy path** instead: every rank's
contribution already sits in POSIX shared memory, so the reduction is an
in-place ``np.maximum``-style sweep over all ranks' segments, coordinated
by two pipe barriers (contributions visible → reduce → all reads done →
publish).  Nothing but the control messages is pickled — the payload never
leaves shared memory.  PRNA backs its memo table with such a segment, so
the per-row ``Allreduce(MAX)`` that dominates its communication costs no
serialization at all; the pipe exchange remains the fallback for ordinary
buffers.

This is the "multiprocessing hack" the reproduction notes anticipate: it is
the only backend on which pure-Python compute actually scales with cores.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import traceback
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import CollectiveMismatchError, CommunicatorError
from repro.mpi.communicator import Communicator
from repro.mpi.costmodel import CostModel
from repro.mpi.datatypes import ReduceOp, apply_op
from repro.mpi.reduce_algos import allreduce_recursive_doubling
from repro.mpi.virtualtime import VirtualClock

__all__ = ["ProcessCommunicator", "run_multiprocess"]


def _untrack(segment: shared_memory.SharedMemory) -> None:
    """Detach *segment* from this process's resource tracker.

    Attaching registers the segment a second time, and the tracker of a
    non-owning rank would otherwise try to unlink it again at exit (the
    well-known "leaked shared_memory objects" warning).  Only the creating
    rank keeps its registration — and discharges it via ``unlink``.
    """
    try:  # pragma: no cover - defensive against stdlib internals shifting
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass


@dataclass
class _SharedGroup:
    """One collective allocation: every rank's segment plus array views."""

    shape: tuple[int, ...]
    dtype: np.dtype
    owner_rank: int
    segments: list[shared_memory.SharedMemory]
    arrays: list[np.ndarray] = field(default_factory=list)

    @property
    def own_array(self) -> np.ndarray:
        return self.arrays[self.owner_rank]

    def locate(self, buffer: np.ndarray) -> int | None:
        """Byte offset of *buffer* inside the owner's segment, or None."""
        if not buffer.flags["C_CONTIGUOUS"]:
            return None
        own = self.own_array
        base = own.__array_interface__["data"][0]
        addr = buffer.__array_interface__["data"][0]
        if base <= addr and addr + buffer.nbytes <= base + own.nbytes:
            return addr - base
        return None

    def peer_view(self, rank: int, buffer: np.ndarray, offset: int) -> np.ndarray:
        """*rank*'s copy of the region *buffer* occupies in the owner's."""
        return np.ndarray(
            buffer.shape, buffer.dtype,
            buffer=self.segments[rank].buf, offset=offset,
        )

    def release(self, *, unlink_own: bool) -> None:
        self.arrays.clear()
        for rank, segment in enumerate(self.segments):
            try:
                segment.close()
            except BufferError:
                # A live outside view (e.g. a result object still holding
                # the memo) keeps the mapping pinned; the OS reclaims it at
                # process exit, and unlink below still removes the name.
                pass
            if unlink_own and rank == self.owner_rank:
                try:
                    segment.unlink()
                except FileNotFoundError:  # pragma: no cover - double free
                    pass
        self.segments.clear()


class ProcessCommunicator(Communicator):
    """Communicator endpoint for one process-rank.

    ``connections[peer]`` is this rank's end of the duplex pipe to *peer*.
    Messages are ``(tag, payload)`` tuples; out-of-order tags are stashed
    until a matching :meth:`recv` asks for them.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        connections: dict[int, Any],
        clock: VirtualClock | None = None,
        cost_model: CostModel | None = None,
        shm_min_bytes: int = 0,
    ):
        super().__init__(rank, size, clock, cost_model)
        self._connections = connections
        self._pending: dict[tuple[int, int], list[Any]] = {}
        self._shm_groups: list[_SharedGroup] = []
        #: Buffers below this size take the pipe reduction even when they
        #: live in a shared segment: the shm path costs three control
        #: rounds per call, which small payloads cannot amortize (the
        #: planner prices the crossover; 0 keeps shm for every located
        #: buffer).  Deterministic across ranks — nbytes is collective
        #: state — so the mode agreement below still converges.
        self.shm_min_bytes = int(shm_min_bytes)

    # -- point to point ----------------------------------------------------
    def _send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if dest == self._rank:
            raise CommunicatorError("send to self would deadlock recv ordering")
        try:
            conn = self._connections[dest]
        except KeyError:
            raise CommunicatorError(
                f"dest {dest} outside [0, {self._size})"
            ) from None
        conn.send((tag, obj))

    def _recv(self, source: int, tag: int = 0) -> Any:
        try:
            conn = self._connections[source]
        except KeyError:
            raise CommunicatorError(
                f"source {source} outside [0, {self._size})"
            ) from None
        stash = self._pending.get((source, tag))
        if stash:
            return stash.pop(0)
        while True:
            got_tag, payload = conn.recv()
            if got_tag == tag:
                return payload
            self._pending.setdefault((source, got_tag), []).append(payload)

    def _try_recv(self, source: int, tag: int = 0) -> tuple[bool, Any]:
        try:
            conn = self._connections[source]
        except KeyError:
            raise CommunicatorError(
                f"source {source} outside [0, {self._size})"
            ) from None
        stash = self._pending.get((source, tag))
        if stash:
            return True, stash.pop(0)
        # Drain whatever is already in the pipe into the stash.
        while conn.poll(0):
            got_tag, payload = conn.recv()
            if got_tag == tag:
                return True, payload
            self._pending.setdefault((source, got_tag), []).append(payload)
        return False, None

    # -- collectives ---------------------------------------------------------
    _BARRIER_TAG = 0x7FF0
    _EXCHANGE_TAG = 0x7FF1

    def _barrier(self) -> None:
        # Two-phase star: everyone checks in at rank 0, rank 0 releases.
        if self._size == 1:
            return
        if self._rank == 0:
            for source in range(1, self._size):
                self.recv(source, self._BARRIER_TAG)
            for dest in range(1, self._size):
                self.send(None, dest, self._BARRIER_TAG)
        else:
            self.send(None, 0, self._BARRIER_TAG)
            self.recv(0, self._BARRIER_TAG)

    def _exchange(self, key: str, payload: Any) -> list[Any]:
        if self._size == 1:
            return [payload]
        tag = self._EXCHANGE_TAG
        if self._rank == 0:
            entries: list[Any] = [(key, payload)]
            entries += [self.recv(source, tag) for source in range(1, self._size)]
            keys = [entry[0] for entry in entries]
            if any(k != key for k in keys):
                result: Any = CollectiveMismatchError(
                    f"ranks disagree on the collective being executed: {keys}"
                )
            else:
                result = [entry[1] for entry in entries]
            for dest in range(1, self._size):
                self.send(result, dest, tag)
        else:
            self.send((key, payload), 0, tag)
            result = self.recv(0, tag)
        if isinstance(result, CollectiveMismatchError):
            raise result
        return result

    # -- shared-memory reductions --------------------------------------------
    @property
    def supports_shared_reduction(self) -> bool:
        return True

    def allocate_shared(self, shape, dtype=np.int64) -> np.ndarray:
        """Collectively allocate a zeroed array visible to every rank.

        Every rank creates one POSIX shared-memory segment, publishes its
        name through an :meth:`_exchange` round, and attaches the peers'
        segments.  The returned array is this rank's *private* copy — ranks
        write independently, and :meth:`Allreduce` on any buffer inside it
        reduces across all ranks' copies without pickling the payload.
        """
        shape = tuple(int(extent) for extent in shape)
        dt = np.dtype(dtype)
        nbytes = max(int(np.prod(shape, dtype=np.int64)) * dt.itemsize, 1)
        own = shared_memory.SharedMemory(create=True, size=nbytes)
        descriptors = self._exchange("shm:alloc", (own.name, shape, dt.str))
        if any(desc[1:] != (shape, dt.str) for desc in descriptors):
            raise CommunicatorError(
                f"ranks disagree on the shared allocation: {descriptors}"
            )
        segments: list[shared_memory.SharedMemory] = []
        for rank, (name, _, _) in enumerate(descriptors):
            if rank == self._rank:
                segments.append(own)
            else:
                peer = shared_memory.SharedMemory(name=name)
                _untrack(peer)
                segments.append(peer)
        group = _SharedGroup(shape, dt, self._rank, segments)
        group.arrays = [
            np.ndarray(shape, dt, buffer=segment.buf) for segment in segments
        ]
        group.own_array[...] = 0
        self._shm_groups.append(group)
        # Don't hand out shared memory before every rank finished zeroing.
        self._barrier()
        return group.own_array

    def _locate_shared(self, buffer) -> tuple[_SharedGroup, int] | None:
        if not isinstance(buffer, np.ndarray) or not self._shm_groups:
            return None
        for group in self._shm_groups:
            offset = group.locate(buffer)
            if offset is not None:
                return group, offset
        return None

    def _shared_allreduce(
        self, buffer: np.ndarray, op: ReduceOp, group: _SharedGroup, offset: int
    ) -> None:
        # Barrier 1: every rank's contribution is in its segment.
        self._barrier()
        # Reduce all ranks' copies in ascending rank order into private
        # scratch — a deterministic order, so every rank computes the same
        # result bit for bit regardless of scheduling.
        result = group.peer_view(0, buffer, offset).copy()
        for rank in range(1, self._size):
            apply_op(op, result, group.peer_view(rank, buffer, offset), out=result)
        # Barrier 2: nobody overwrites a segment a peer is still reading.
        self._barrier()
        buffer[...] = result

    def Allreduce(self, buffer, op: ReduceOp = ReduceOp.MAX) -> None:
        """In-place NumPy allreduce; zero-copy when *buffer* is shared.

        Buffers inside an :meth:`allocate_shared` group are reduced in
        place across all ranks' segments (two barriers, no payload
        pickling); anything else takes recursive doubling over the pipes.
        The mode is agreed collectively, so a rank whose buffer aliases
        shared memory can never deadlock against one whose doesn't.
        """
        located = self._locate_shared(buffer)
        if located is not None and buffer.nbytes < self.shm_min_bytes:
            located = None  # below the priced shm crossover: pipe is cheaper
        if self._shm_groups or located is not None:
            modes = self._exchange("Allreduce:mode", located is not None)
            if not all(modes):
                located = None
        if located is not None:
            group, offset = located
            self._shared_allreduce(buffer, op, group, offset)
            if self.stats is not None:
                self.stats.allreduces += 1
                self.stats.shm_allreduces += 1
                self.stats.shm_allreduce_bytes += int(buffer.nbytes)
        else:
            allreduce_recursive_doubling(self, buffer, op)
            if self.stats is not None:
                self.stats.allreduces += 1
                self.stats.allreduce_bytes += int(buffer.nbytes)
        self._charge_collective("allreduce", buffer.nbytes)

    def close(self) -> None:
        """Release shared-memory segments (owner ranks also unlink)."""
        for group in self._shm_groups:
            group.release(unlink_own=True)
        self._shm_groups.clear()


def _child_main(
    fn: Callable[..., Any],
    rank: int,
    size: int,
    connections: dict[int, Any],
    result_conn,
    args: Sequence[Any],
    use_clock: bool,
    cost_model: CostModel | None,
    shm_min_bytes: int = 0,
) -> None:
    clock = VirtualClock() if use_clock else None
    comm = ProcessCommunicator(
        rank, size, connections, clock, cost_model,
        shm_min_bytes=shm_min_bytes,
    )
    try:
        value = fn(comm, *args)
        simulated = clock.now if clock is not None else None
        result_conn.send(("ok", value, simulated))
    except BaseException:  # noqa: BLE001 - serialized to the parent
        result_conn.send(("error", traceback.format_exc(), None))
    finally:
        comm.close()
        result_conn.close()


def _exit_status(exitcode: int | None) -> str:
    """Describe a joined rank's exit: signal name, exit code, or still alive."""
    if exitcode is None:
        return "still running after join"
    if exitcode < 0:
        try:
            return f"killed by signal {signal.Signals(-exitcode).name}"
        except ValueError:
            return f"killed by signal {-exitcode}"
    return f"exit code {exitcode}"


def run_multiprocess(
    fn: Callable[..., Any],
    size: int,
    args: Sequence[Any] = (),
    *,
    cost_model: CostModel | None = None,
    with_clocks: bool = False,
    timeout: float = 300.0,
    shm_min_bytes: int = 0,
) -> list[Any]:
    """Run ``fn(comm, *args)`` on *size* process-ranks; return all results.

    Uses the ``fork`` start method (POSIX only) so *fn* and *args* need not
    be picklable.  With ``with_clocks=True`` results are
    ``(value, simulated_time)`` pairs.  A rank raising is reported as a
    :class:`CommunicatorError` carrying its traceback; a rank that exits
    without sending a result (killed by a signal, ``os._exit``) as one
    naming the rank and its exit code or signal.
    """
    if size < 1:
        raise CommunicatorError(f"size must be >= 1, got {size}")
    if os.name != "posix":  # pragma: no cover - platform guard
        raise CommunicatorError("the process backend requires POSIX fork")
    ctx = mp.get_context("fork")

    # Duplex pipe per unordered rank pair.
    ends: dict[int, dict[int, Any]] = {rank: {} for rank in range(size)}
    for a in range(size):
        for b in range(a + 1, size):
            conn_a, conn_b = ctx.Pipe(duplex=True)
            ends[a][b] = conn_a
            ends[b][a] = conn_b

    result_pipes = [ctx.Pipe(duplex=False) for _ in range(size)]
    workers = [
        ctx.Process(
            target=_child_main,
            args=(
                fn, rank, size, ends[rank], result_pipes[rank][1], args,
                with_clocks, cost_model, shm_min_bytes,
            ),
            name=f"rank-{rank}",
        )
        for rank in range(size)
    ]
    for worker in workers:
        worker.start()
    # Parent closes its copies of the child ends so EOF propagates.
    for rank in range(size):
        result_pipes[rank][1].close()
        for conn in ends[rank].values():
            conn.close()

    outcomes: list[Any] = []
    for rank in range(size):
        receiver = result_pipes[rank][0]
        try:
            if receiver.poll(timeout):
                outcomes.append(receiver.recv())
            else:
                outcomes.append(("error", f"rank {rank} timed out", None))
        except (EOFError, OSError):
            # The rank died before sending; its exit status is known
            # only after the join below.
            outcomes.append(("lost", None, None))
        receiver.close()
    for worker in workers:
        worker.join(timeout=10.0)
        if worker.is_alive():  # pragma: no cover - hung child
            worker.terminate()
    # A lost rank is reported first: peers failing after it are symptoms.
    for rank, (status, _, _) in enumerate(outcomes):
        if status == "lost":
            raise CommunicatorError(
                f"rank {rank} exited without a result "
                f"({_exit_status(workers[rank].exitcode)})"
            )
    for rank, (status, payload, _) in enumerate(outcomes):
        if status == "error":
            raise CommunicatorError(f"rank {rank} failed:\n{payload}")
    if with_clocks:
        return [(payload, simulated) for _, payload, simulated in outcomes]
    return [payload for _, payload, _ in outcomes]
