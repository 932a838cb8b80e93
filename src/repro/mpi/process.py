"""Process-backed communicator — real parallelism across the GIL.

Each rank is an OS process (``multiprocessing``, fork start method); every
ordered pair of ranks shares a duplex pipe, so point-to-point messages
travel without a central broker.  Generic collectives are implemented as a
gather-to-0 / broadcast star over the pipes, while the NumPy
:meth:`Allreduce` runs a genuine recursive-doubling exchange
(:mod:`repro.mpi.reduce_algos`) — the same algorithm an MPI library would
use — so the paper's communication pattern is exercised for real.

This is the "multiprocessing hack" the reproduction notes anticipate: it is
the only backend on which pure-Python compute actually scales with cores.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
import traceback
from multiprocessing.connection import wait
from typing import Any, Callable, Sequence

from repro.errors import CollectiveMismatchError, CommunicatorError
from repro.mpi.communicator import Communicator
from repro.mpi.costmodel import CostModel
from repro.mpi.datatypes import ReduceOp
from repro.mpi.reduce_algos import allreduce_recursive_doubling
from repro.mpi.virtualtime import VirtualClock

__all__ = ["ProcessCommunicator", "run_multiprocess"]


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
    ):
        super().__init__(rank, size, clock, cost_model)
        self._connections = connections
        self._pending: dict[tuple[int, int], list[Any]] = {}

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

    def Allreduce(self, buffer, op: ReduceOp = ReduceOp.MAX) -> None:
        """In-place NumPy allreduce by recursive doubling over the pipes."""
        allreduce_recursive_doubling(self, buffer, op)
        if self.stats is not None:
            self.stats.allreduces += 1
            self.stats.allreduce_bytes += int(buffer.nbytes)
        self._charge_collective("allreduce", buffer.nbytes)


def _child_main(
    fn: Callable[..., Any],
    rank: int,
    size: int,
    connections: dict[int, Any],
    result_conn,
    args: Sequence[Any],
    cost_model: CostModel | None,
    foreign: Sequence[Any],
) -> None:
    # Drop the inherited pipe ends of every other rank and of the parent,
    # so a peer's death reads as EOF here instead of a silent hang.
    for conn in foreign:
        conn.close()
    clock = VirtualClock() if cost_model is not None else None
    comm = ProcessCommunicator(rank, size, connections, clock, cost_model)
    try:
        value = fn(comm, *args)
        simulated = clock.now if clock is not None else None
        result_conn.send(("ok", value, simulated))
    except EOFError:
        # A peer's pipe closed under this rank: a symptom of its failure.
        result_conn.send(("orphaned", traceback.format_exc(), None))
    except BaseException:  # noqa: BLE001 - serialized to the parent
        result_conn.send(("error", traceback.format_exc(), None))
    finally:
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
    timeout: float = 300.0,
) -> list[Any]:
    """Run ``fn(comm, *args)`` on *size* process-ranks; return all results.

    Uses the ``fork`` start method (POSIX only) so *fn* and *args* need not
    be picklable.  With a *cost_model* every rank carries a virtual clock
    and results are ``(value, simulated_time)`` pairs.  Failures raise a
    :class:`CommunicatorError` naming the rank, in this order of
    precedence: a rank that exits without sending a result (killed by a
    signal, ``os._exit``) with its exit code or signal; a rank that raised,
    with its traceback; a rank that failed only because a peer's pipe
    closed under it; a rank still running *timeout* seconds after the
    launch, which is terminated.  All ranks share that one deadline.
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
    every_conn = [conn for pipe in result_pipes for conn in pipe] + [
        conn for rank_ends in ends.values() for conn in rank_ends.values()
    ]
    workers = []
    for rank in range(size):
        own = {result_pipes[rank][1], *ends[rank].values()}
        foreign = [conn for conn in every_conn if conn not in own]
        workers.append(ctx.Process(
            target=_child_main,
            args=(
                fn, rank, size, ends[rank], result_pipes[rank][1], args,
                cost_model, foreign,
            ),
            name=f"rank-{rank}",
        ))
    for worker in workers:
        worker.start()
    # Parent closes its copies of the child ends so EOF propagates.
    for rank in range(size):
        result_pipes[rank][1].close()
        for conn in ends[rank].values():
            conn.close()

    # One deadline for the whole world: wait on every result pipe at once.
    outcomes: list[Any] = [("timeout", None, None)] * size
    pending = {result_pipes[rank][0]: rank for rank in range(size)}
    deadline = time.monotonic() + timeout
    while pending:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        for receiver in wait(list(pending), remaining):
            rank = pending.pop(receiver)
            try:
                outcomes[rank] = receiver.recv()
            except (EOFError, OSError):
                # The rank died before sending; its exit status is known
                # only after the join below.
                outcomes[rank] = ("lost", None, None)
            receiver.close()
    for receiver, rank in pending.items():
        receiver.close()
        workers[rank].terminate()
    for worker in workers:
        worker.join(timeout=5.0)
        if worker.is_alive():  # pragma: no cover - SIGTERM ignored
            worker.kill()
            worker.join()
    # Report the cause, not its symptoms: a rank that died without a
    # result, then one that raised, then one that only saw a peer's pipe
    # close under it, then one that hung.
    for wanted in ("lost", "error", "orphaned", "timeout"):
        for rank, (status, payload, _) in enumerate(outcomes):
            if status != wanted:
                continue
            if status == "lost":
                raise CommunicatorError(
                    f"rank {rank} exited without a result "
                    f"({_exit_status(workers[rank].exitcode)})"
                )
            if status == "timeout":
                raise CommunicatorError(
                    f"rank {rank} timed out: no result within {timeout:g} s;"
                    " terminated"
                )
            raise CommunicatorError(f"rank {rank} failed:\n{payload}")
    if cost_model is not None:
        return [(payload, simulated) for _, payload, simulated in outcomes]
    return [payload for _, payload, _ in outcomes]
