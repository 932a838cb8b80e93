"""Thread-backed communicator — shared-memory SPMD in one process.

Each rank is a Python thread; collectives rendezvous through a shared
context guarded by a reusable barrier, and point-to-point messages travel
through per-``(source, dest, tag)`` queues.

Because of the GIL, pure-Python compute does **not** speed up across these
threads — exactly the limitation the reproduction notes call out — but the
backend provides (a) a *correctness* vehicle for PRNA's communication
pattern, (b) per-rank virtual clocks for simulated cluster timings, and
(c) real concurrency for NumPy kernels that release the GIL.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, Sequence

from repro.errors import CollectiveMismatchError, CommunicatorError
from repro.mpi.communicator import Communicator
from repro.mpi.costmodel import CostModel
from repro.mpi.virtualtime import VirtualClock

__all__ = ["ThreadCommunicator", "run_threaded"]


class _WorldAbortedError(CommunicatorError):
    """A barrier broke because some other rank failed first.

    This is a *secondary* symptom: when a rank raises, the world's barrier
    is aborted so peers unblock, and those peers surface this error.  The
    runner prioritizes the primary error over it.
    """


class _SharedContext:
    """State shared by all ranks of one threaded world."""

    def __init__(self, size: int):
        self.size = size
        self.slots: list[Any] = [None] * size
        self.keys: list[str | None] = [None] * size
        self.barrier = threading.Barrier(size)
        self.mailbox_lock = threading.Lock()
        self.mailboxes: dict[tuple[int, int, int], queue.Queue] = {}

    def mailbox(self, source: int, dest: int, tag: int) -> queue.Queue:
        key = (source, dest, tag)
        with self.mailbox_lock:
            box = self.mailboxes.get(key)
            if box is None:
                box = self.mailboxes[key] = queue.Queue()
            return box


class ThreadCommunicator(Communicator):
    """Communicator endpoint for one thread-rank."""

    def __init__(
        self,
        context: _SharedContext,
        rank: int,
        clock: VirtualClock | None = None,
        cost_model: CostModel | None = None,
    ):
        super().__init__(rank, context.size, clock, cost_model)
        self._ctx = context

    # -- point to point ----------------------------------------------------
    def _send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if not 0 <= dest < self._size:
            raise CommunicatorError(f"dest {dest} outside [0, {self._size})")
        if dest == self._rank:
            raise CommunicatorError("send to self would deadlock recv ordering")
        self._ctx.mailbox(self._rank, dest, tag).put(obj)

    def _recv(self, source: int, tag: int = 0) -> Any:
        if not 0 <= source < self._size:
            raise CommunicatorError(f"source {source} outside [0, {self._size})")
        return self._ctx.mailbox(source, self._rank, tag).get()

    def _try_recv(self, source: int, tag: int = 0) -> tuple[bool, Any]:
        if not 0 <= source < self._size:
            raise CommunicatorError(f"source {source} outside [0, {self._size})")
        try:
            return True, self._ctx.mailbox(source, self._rank, tag).get_nowait()
        except queue.Empty:
            return False, None

    # -- collectives ---------------------------------------------------------
    def _barrier(self) -> None:
        try:
            self._ctx.barrier.wait()
        except threading.BrokenBarrierError as exc:
            raise _WorldAbortedError(
                "barrier broken — another rank failed"
            ) from exc

    def _exchange(self, key: str, payload: Any) -> list[Any]:
        ctx = self._ctx
        ctx.slots[self._rank] = payload
        ctx.keys[self._rank] = key
        self._barrier()
        if any(k != key for k in ctx.keys):
            raise CollectiveMismatchError(
                f"ranks disagree on the collective being executed: {ctx.keys}"
            )
        result = list(ctx.slots)
        # Second barrier: nobody may overwrite the slots for the next
        # collective until every rank has copied this one's results.
        self._barrier()
        return result


def run_threaded(
    fn: Callable[..., Any],
    size: int,
    args: Sequence[Any] = (),
    *,
    cost_model: CostModel | None = None,
) -> list[Any]:
    """Run ``fn(comm, *args)`` on *size* thread-ranks; return all results.

    With a *cost_model* each communicator carries a :class:`VirtualClock`
    (``fn`` may charge compute; collectives charge the model), and results
    are returned as ``(value, simulated_time)`` pairs.

    Any rank raising aborts the whole world: the barrier is broken so peers
    unblock, and the first exception is re-raised in the caller.
    """
    if size < 1:
        raise CommunicatorError(f"size must be >= 1, got {size}")
    ctx = _SharedContext(size)
    results: list[Any] = [None] * size
    errors: list[BaseException | None] = [None] * size
    clocks = [
        VirtualClock() if cost_model is not None else None
        for _ in range(size)
    ]

    def worker(rank: int) -> None:
        comm = ThreadCommunicator(ctx, rank, clocks[rank], cost_model)
        try:
            results[rank] = fn(comm, *args)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            errors[rank] = exc
            ctx.barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(rank,), name=f"rank-{rank}")
        for rank in range(size)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    # Surface the most informative failure: a rank's own exception first,
    # then specific communicator errors, and the secondary "world aborted"
    # symptom only if nothing else explains the failure.
    for exc in errors:
        if exc is not None and not isinstance(exc, CommunicatorError):
            raise exc
    for exc in errors:
        if exc is not None and not isinstance(exc, _WorldAbortedError):
            raise exc
    for exc in errors:
        if exc is not None:
            raise exc
    if cost_model is not None:
        return [
            (results[rank], clocks[rank].now)  # type: ignore[union-attr]
            for rank in range(size)
        ]
    return results
