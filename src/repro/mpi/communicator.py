"""Abstract communicator — the MPI-style API the backends implement.

Lowercase methods (``send``/``recv``/``bcast``/``allgather``/
``allreduce``) move arbitrary picklable Python objects, while the
uppercase :meth:`Communicator.Allreduce` reduces a NumPy buffer **in
place** — the primitive PRNA uses to synchronize each memoization-table
row ("MPI_Allreduce with the beginning address of the row ... using the
MPI_MAX operation", Section V-B).  :meth:`Communicator.Publish` and
:meth:`Communicator.Await` carry the dataflow schedule's point-to-point
cell publications.

Every communicator optionally carries a :class:`~repro.mpi.virtualtime
.VirtualClock` and a :class:`~repro.mpi.costmodel.CostModel`; when present,
communication calls charge their modelled cost and synchronize clocks, so
the same SPMD program yields both answers *and* simulated cluster timings.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Any, Iterable

import numpy as np

from repro.errors import CommunicatorError
from repro.mpi.costmodel import CostModel
from repro.mpi.datatypes import ReduceOp, apply_op
from repro.mpi.virtualtime import VirtualClock

#: Reserved point-to-point tag of the publication channel
#: (:meth:`Communicator.Publish` / :meth:`Communicator.Await`).  Kept out
#: of the user tag space, below the process backend's protocol tags.
_PUBLISH_TAG = 0x7FE2


def _payload_bytes(obj: Any) -> int:
    """Approximate wire size of a message payload (cheap, stats-only)."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, str)):
        return len(obj)
    try:
        import pickle

        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # pragma: no cover - unpicklable payloads
        return 0

__all__ = [
    "Communicator",
    "CommStats",
    "ReduceOp",
    "SelfCommunicator",
]


class CommStats:
    """Per-rank communication counters.

    Attach with :meth:`Communicator.enable_stats`; every point-to-point
    and collective operation is tallied, letting tests assert a program's
    *communication pattern* — e.g. that PRNA performs exactly one row
    Allreduce per outer arc and nothing else (paper §V-B).
    """

    __slots__ = (
        "sends",
        "recvs",
        "bytes_sent",
        "barriers",
        "bcasts",
        "allreduces",
        "allreduce_bytes",
        "exchanges",
        "publishes",
        "awaits",
        "coalesced_cells",
        "publish_bytes",
        "dependency_wait_ns",
        "sanitizer_checks",
        "sanitizer_ns",
    )

    def __init__(self) -> None:
        self.sends = 0
        self.recvs = 0
        self.bytes_sent = 0
        self.barriers = 0
        self.bcasts = 0
        self.allreduces = 0
        self.allreduce_bytes = 0
        self.exchanges = 0
        #: Dependency-driven publication channel (the dataflow executor's
        #: substrate): ``publishes`` counts coalesced batch messages put on
        #: the wire, ``awaits`` counts :meth:`Communicator.Await` calls
        #: that actually blocked on the transport (wait-sets already
        #: satisfied by earlier batches cost nothing), ``coalesced_cells``
        #: counts the memo cells those batches carried,  ``publish_bytes``
        #: their approximate wire size, and ``dependency_wait_ns`` the
        #: nanoseconds spent blocked inside ``Await`` — the point-to-point
        #: analogue of a row barrier's collective wait.
        self.publishes = 0
        self.awaits = 0
        self.coalesced_cells = 0
        self.publish_bytes = 0
        self.dependency_wait_ns = 0
        #: Validations performed (and nanoseconds spent) by the runtime
        #: sanitizer wrapper, when :class:`repro.check.SanitizedCommunicator`
        #: is active; zero otherwise.  Lets the overhead of sanitized runs
        #: be reported rather than guessed.
        self.sanitizer_checks = 0
        self.sanitizer_ns = 0

    def as_dict(self) -> dict[str, int]:
        """All counters as a plain dictionary."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"CommStats({parts})"


class Communicator(ABC):
    """SPMD communication endpoint for one rank."""

    #: Adaptive-coalescing threshold of the publication channel: cells
    #: buffered per destination before :meth:`Publish` flushes a batch on
    #: its own.  Small publications ride together in one message; a
    #: dependency demand (``urgent=True`` or any :meth:`Await`) flushes
    #: immediately regardless.
    publish_coalesce_cells: int = 256

    def __init__(
        self,
        rank: int,
        size: int,
        clock: VirtualClock | None = None,
        cost_model: CostModel | None = None,
    ):
        if not 0 <= rank < size:
            raise CommunicatorError(f"rank {rank} outside [0, {size})")
        self._rank = rank
        self._size = size
        self.clock = clock
        self.cost_model = cost_model
        self.stats: CommStats | None = None
        # Publication channel state: per-destination outboxes of pending
        # ``(key, payload)`` publications with their buffered cell counts,
        # and per-source inboxes of delivered-but-unclaimed publications.
        self._pub_outbox: dict[int, list[tuple[Any, Any]]] = {}
        self._pub_pending_cells: dict[int, int] = {}
        self._pub_inbox: dict[int, dict[Any, Any]] = {}

    def enable_stats(self) -> CommStats:
        """Attach (and return) communication counters for this rank."""
        if self.stats is None:
            self.stats = CommStats()
        return self.stats

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """This process's rank in ``[0, size)``."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return self._size

    # -- primitives every backend must provide ---------------------------
    @abstractmethod
    def _send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Backend primitive: buffered send of a picklable object."""

    @abstractmethod
    def _recv(self, source: int, tag: int = 0) -> Any:
        """Backend primitive: blocking receive with matching *tag*."""

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking-buffered send of a picklable object."""
        self._send(obj, dest, tag)
        if self.stats is not None:
            self.stats.sends += 1
            self.stats.bytes_sent += _payload_bytes(obj)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive from *source* with matching *tag*."""
        payload = self._recv(source, tag)
        if self.stats is not None:
            self.stats.recvs += 1
        return payload

    def _try_recv(self, source: int, tag: int = 0) -> tuple[bool, Any]:
        """Nonblocking receive attempt; returns ``(found, payload)``."""
        raise CommunicatorError(
            f"{type(self).__name__} does not support nonblocking receives"
        )

    @abstractmethod
    def _barrier(self) -> None:
        """Backend primitive: block until every rank has entered."""

    @abstractmethod
    def _exchange(self, key: str, payload: Any) -> list[Any]:
        """Collective rendezvous: deposit *payload*, return all payloads
        ordered by rank.  *key* names the collective for mismatch checks."""

    def _count_exchange(self) -> None:
        if self.stats is not None:
            self.stats.exchanges += 1

    def barrier(self) -> None:
        """Block until every rank has entered the barrier.

        Like every collective, a barrier is a virtual-time synchronization
        point: participating clocks advance together.
        """
        self._barrier()
        if self.stats is not None:
            self.stats.barriers += 1
        self._charge_collective("barrier", 0)

    # -- collectives built on the rendezvous ------------------------------
    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast *obj* from *root*; every rank returns the root's value."""
        self._check_root(root)
        values = self._exchange("bcast", obj if self._rank == root else None)
        if self.stats is not None:
            self.stats.bcasts += 1
        self._charge_collective("bcast", 128)
        return values[root]

    def allgather(self, obj: Any) -> list[Any]:
        """Gather one object per rank at every rank."""
        values = self._exchange("allgather", obj)
        self._count_exchange()
        self._charge_collective("allreduce", 128)
        return values

    def allreduce(self, value: Any, op: ReduceOp = ReduceOp.SUM) -> Any:
        """Reduce scalars/objects across ranks; every rank gets the result."""
        values = self._exchange("allreduce", value)
        result = values[0]
        for other in values[1:]:
            result = apply_op(op, result, other)
        self._count_exchange()
        self._charge_collective("allreduce", 64)
        return result

    def Allreduce(self, buffer: np.ndarray, op: ReduceOp = ReduceOp.MAX) -> None:
        """In-place elementwise reduction of a NumPy buffer across ranks.

        This is PRNA's row-synchronization primitive.  After the call every
        rank's *buffer* holds the elementwise reduction of all ranks'
        buffers.
        """
        if not isinstance(buffer, np.ndarray):
            raise CommunicatorError(
                f"Allreduce requires a numpy array, got {type(buffer).__name__}"
            )
        shapes = self._exchange("Allreduce:shape", (buffer.shape, str(op)))
        if any(s != shapes[0] for s in shapes):
            raise CommunicatorError(
                f"Allreduce mismatch across ranks: {shapes}"
            )
        contributions = self._exchange("Allreduce:data", buffer.copy())
        # Reduce into this rank's own buffer: the contributions are shared
        # by every thread rank, so reducing into one of them races.
        buffer[...] = contributions[0]
        for other in contributions[1:]:
            apply_op(op, buffer, other, out=buffer)
        if self.stats is not None:
            self.stats.allreduces += 1
            self.stats.allreduce_bytes += int(buffer.nbytes)
        self._charge_collective("allreduce", buffer.nbytes)

    # -- dependency-driven publication channel ----------------------------
    def Publish(
        self, key: Any, payload: Any, dest: int, *, urgent: bool = False
    ) -> None:
        """Publish *payload* under *key* to rank *dest* (non-blocking).

        The dataflow executor's substrate: the producing rank publishes
        completed memo cells the moment they exist; the consuming rank
        claims them with :meth:`Await` when its wait-set demands them.
        Publications to the same destination are **coalesced** — buffered
        locally and shipped as one batch message once
        :attr:`publish_coalesce_cells` cells are pending, when
        ``urgent=True``, or when this rank itself blocks in :meth:`Await`
        (flushing everything pending first keeps the protocol
        deadlock-free).  NumPy payloads are copied at publish time so the
        caller may keep mutating the source buffer.
        """
        if dest == self._rank:
            raise CommunicatorError("Publish to self is meaningless")
        if not 0 <= dest < self._size:
            raise CommunicatorError(f"dest {dest} outside [0, {self._size})")
        if isinstance(payload, np.ndarray):
            cells = int(payload.size)
            payload = np.array(payload, copy=True)
        else:
            cells = 1
        self._pub_outbox.setdefault(dest, []).append((key, payload))
        pending = self._pub_pending_cells.get(dest, 0) + cells
        self._pub_pending_cells[dest] = pending
        if urgent or pending >= self.publish_coalesce_cells:
            self._flush_publications_to(dest)

    def flush_publications(self, dest: int | None = None) -> None:
        """Ship every buffered publication (to *dest*, or to all peers)."""
        if dest is not None:
            self._flush_publications_to(dest)
            return
        for peer in sorted(self._pub_outbox):
            self._flush_publications_to(peer)

    def _flush_publications_to(self, dest: int) -> None:
        batch = self._pub_outbox.pop(dest, None)
        self._pub_pending_cells.pop(dest, None)
        if not batch:
            return
        self._send(batch, dest, _PUBLISH_TAG)
        if self.stats is not None:
            self.stats.publishes += 1
            for key, payload in batch:
                if isinstance(payload, np.ndarray):
                    self.stats.coalesced_cells += int(payload.size)
                else:
                    self.stats.coalesced_cells += 1
                self.stats.publish_bytes += _payload_bytes(payload)

    def Await(self, keys: Iterable[Any], source: int) -> dict[Any, Any]:
        """Claim the publications *keys* from rank *source* (blocking).

        Returns ``{key: payload}`` once every key has arrived.  Keys
        delivered earlier (riding in a previous coalesced batch) are
        served from the inbox without touching the transport; keys that
        arrive early while draining stay in the inbox for later ``Await``
        calls.  Before blocking, this rank flushes all of its own pending
        publications — a rank waiting on a dependency must never sit on
        cells someone else is waiting for.
        """
        keys = list(keys)
        inbox = self._pub_inbox.setdefault(source, {})
        missing = [k for k in keys if k not in inbox]
        if missing:
            self.flush_publications()
            wanted = set(missing)
            t0 = time.perf_counter_ns()
            while wanted:
                for key, payload in self._recv_publication(source):
                    inbox[key] = payload
                    wanted.discard(key)
            if self.stats is not None:
                self.stats.awaits += 1
                self.stats.dependency_wait_ns += time.perf_counter_ns() - t0
        return {k: inbox.pop(k) for k in keys}

    def _recv_publication(self, source: int) -> list[tuple[Any, Any]]:
        """Backend hook: block for one coalesced publication batch.

        The sanitizer overrides this with a polling deadline so a missing
        publication surfaces as a diagnostic instead of a hang.
        """
        return self._recv(source, _PUBLISH_TAG)

    # -- virtual time ------------------------------------------------------
    def charge_compute(self, seconds: float) -> None:
        """Charge *seconds* of simulated compute to this rank's clock,
        inflated by the cluster's contention factor when a model is set."""
        if self.clock is None:
            return
        if self.cost_model is not None:
            seconds = self.cost_model.compute(self._rank, self._size, seconds)
        self.clock.charge(seconds)

    @property
    def simulated_time(self) -> float | None:
        """Current virtual time of this rank (``None`` without a clock)."""
        return self.clock.now if self.clock is not None else None

    def _charge_collective(self, kind: str, nbytes: int) -> None:
        """Synchronize clocks at a collective and charge its modelled cost.

        Must be called by *all* ranks (it rendezvouses on the clock values).
        """
        if self.clock is None:
            return
        cost = 0.0
        if self.cost_model is not None:
            if kind == "allreduce":
                cost = self.cost_model.allreduce(self._size, nbytes)
            elif kind == "bcast":
                cost = self.cost_model.bcast(self._size, nbytes)
            else:
                cost = self.cost_model.barrier(self._size)
        nows = self._exchange("clock:sync", self.clock.now)
        self.clock.advance_to(max(nows) + cost)

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self._size:
            raise CommunicatorError(f"root {root} outside [0, {self._size})")


class SelfCommunicator(Communicator):
    """The trivial single-rank communicator (``MPI_COMM_SELF``).

    Lets every parallel code path run unchanged in a sequential process —
    PRNA with a :class:`SelfCommunicator` *is* SRNA2 plus bookkeeping, a
    fact the equivalence tests rely on.
    """

    def __init__(
        self,
        clock: VirtualClock | None = None,
        cost_model: CostModel | None = None,
    ):
        super().__init__(0, 1, clock, cost_model)

    def _send(self, obj: Any, dest: int, tag: int = 0) -> None:
        raise CommunicatorError("SelfCommunicator has no peers to send to")

    def _recv(self, source: int, tag: int = 0) -> Any:
        raise CommunicatorError("SelfCommunicator has no peers to receive from")

    def _barrier(self) -> None:
        return None

    def _exchange(self, key: str, payload: Any) -> list[Any]:
        return [payload]
