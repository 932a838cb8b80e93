"""Runtime SPMD sanitizers: collective stamping and memo-race detection.

:class:`SanitizedCommunicator` wraps any
:class:`~repro.mpi.communicator.Communicator` (in-process threads or the
pipe/process backend) and enforces the protocol PRNA's correctness
silently assumes:

* every collective is stamped with a per-rank **sequence number, op,
  dtype, shape, root, and call site**; the stamps rendezvous at rank 0
  *before* the real collective runs, so a diverging rank is reported as a
  diagnostic instead of a deadlock or silent corruption;
* the rendezvous (and sanitized ``recv``) polls with a **deadline**, so a
  rank that never arrives converts a hang into a timeout diagnostic
  naming the missing rank and the waiting call site;
* memo tables registered through :meth:`SanitizedCommunicator.guard_memo`
  are diffed against a per-rank **shadow copy** at every row
  ``Allreduce`` — out-of-partition writes, cross-rank write/write
  overlaps, and reads of cells a peer wrote in the same row window all
  raise with the offending cells.

Diagnostic codes (all raised as :class:`~repro.errors.SanitizerError`):

========  ==========================================================
SAN101    ranks disagree on which collective (or which sequence
          number) is being executed
SAN102    collective metadata mismatch (op / dtype / shape / root)
SAN103    a rank never arrived at the collective before the timeout
SAN104    sanitized ``recv`` timed out (mismatched send/recv tags)
SAN201    cross-rank write/write overlap in the Allreduce window
SAN202    write outside the rank's owned partition
SAN203    read of a cell a peer wrote in the same window
SAN204    publication with a key outside the declared schedule
SAN205    publication order violates the declared dependency order
========  ==========================================================

The dataflow executor's one-sided substrate is sanitized too: the
executor hands over its derived plan via
:meth:`SanitizedCommunicator.declare_publication_schedule`, and every
subsequent ``Publish`` is validated *locally* against it — stray keys
(SAN204) and dependencies published after their readers (SAN205) raise
at the offending call site with zero extra traffic, while a sanitized
``Await`` polls with the deadline so an absent publication becomes a
SAN104 diagnostic instead of a hang.  This is the runtime twin of the
static SCHED001–003 proof in :mod:`repro.check.protocol`.

The wrapper is **result-transparent**: it validates and then delegates,
so sanitized runs are bit-identical to plain ones (asserted by tests).
Overhead is accounted in ``CommStats.sanitizer_checks`` /
``sanitizer_ns`` and, when a tracer is attached, as spans with category
``"sanitizer"``.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any

import numpy as np

from repro.errors import CommunicatorError, SanitizerError
from repro.mpi.communicator import _PUBLISH_TAG, Communicator, ReduceOp

__all__ = ["SanitizedCommunicator", "SanitizedMemoTable"]

_PKG_DIR = os.path.dirname(os.path.abspath(__file__))
_COMM_DIR = os.path.join(os.path.dirname(_PKG_DIR), "mpi")


def _call_site() -> str:
    """``file.py:line (function)`` of the first frame outside the
    sanitizer and the communicator plumbing."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        directory = os.path.dirname(os.path.abspath(filename))
        if directory != _PKG_DIR and not os.path.abspath(filename).startswith(
            os.path.join(_COMM_DIR, "communicator")
        ):
            return (
                f"{os.path.basename(filename)}:{frame.f_lineno} "
                f"({frame.f_code.co_name})"
            )
        frame = frame.f_back
    return "<unknown>"


class _MemoGuard:
    """Shadow state for one guarded memo table on one rank."""

    __slots__ = ("values", "shadow", "owned_cols", "reads")

    def __init__(self, values: np.ndarray, owned_cols: np.ndarray | None):
        self.values = values
        self.shadow = values.copy()
        self.owned_cols = (
            np.unique(np.asarray(owned_cols, dtype=np.int64))
            if owned_cols is not None
            else None
        )
        #: cells read via ``lookup`` since the last synchronization,
        #: keyed by row.
        self.reads: dict[int, set[int]] = {}

    def note_read(self, i1: int, i2: int) -> None:
        self.reads.setdefault(int(i1), set()).add(int(i2))

    def locate_row(self, buffer: np.ndarray) -> int | None:
        """Row index of *buffer* inside the guarded table, or None."""
        if (
            buffer.ndim != 1
            or buffer.shape[0] != self.values.shape[1]
            or not np.shares_memory(buffer, self.values)
        ):
            return None
        base = self.values.__array_interface__["data"][0]
        addr = buffer.__array_interface__["data"][0]
        stride = self.values.shape[1] * self.values.itemsize
        offset = addr - base
        if offset % stride:
            return None
        return offset // stride


class SanitizedMemoTable:
    """Drop-in :class:`~repro.core.memo.DenseMemoTable` wrapper.

    Reads through :meth:`lookup` are reported to the guard so the
    sanitizer can flag unordered cross-rank read/write (SAN203); writes
    need no instrumentation — the shadow diff at each ``Allreduce``
    catches direct NumPy stores too.
    """

    __slots__ = ("_table", "_guard")

    def __init__(self, table, guard: _MemoGuard):
        self._table = table
        self._guard = guard

    @property
    def values(self) -> np.ndarray:
        return self._table.values

    @property
    def known(self):
        return getattr(self._table, "known", None)

    @property
    def shape(self) -> tuple[int, int]:
        return self._table.shape

    def store(self, i1: int, i2: int, value: int) -> None:
        """Store a memo value (delegates; the shadow diff audits writes)."""
        self._table.store(i1, i2, value)

    def lookup(self, i1: int, i2: int):
        """Look up a memo value, recording the read for SAN203 checks."""
        self._guard.note_read(i1, i2)
        return self._table.lookup(i1, i2)

    def row(self, i1: int) -> np.ndarray:
        """Row view of the underlying table (Allreduce-compatible)."""
        return self._table.row(i1)

    def nbytes(self) -> int:
        """Table bytes plus the sanitizer's shadow-copy overhead."""
        return int(self._table.nbytes()) + int(self._guard.shadow.nbytes)


class SanitizedCommunicator(Communicator):
    """Validating wrapper around any communicator backend."""

    _STAMP_TAG = 0x5A10
    _VERDICT_TAG = 0x5A11
    _POLL_SECONDS = 0.0005

    def __init__(
        self,
        inner: Communicator,
        *,
        timeout: float = 30.0,
        tracer=None,
    ):
        super().__init__(inner.rank, inner.size, inner.clock, inner.cost_model)
        self._inner = inner
        self._timeout = float(timeout)
        self._tracer = tracer
        self._seq = 0
        self._guards: list[_MemoGuard] = []
        self._polling_ok = True
        self._pub_schedule: dict | None = None
        self._published_arcs: set[int] = set()
        self.stats = inner.stats

    # -- plumbing delegation ----------------------------------------------
    def enable_stats(self):
        """Attach counters on the wrapped communicator (shared object)."""
        self.stats = self._inner.enable_stats()
        return self.stats

    @property
    def inner(self) -> Communicator:
        """The wrapped communicator (escape hatch for tests)."""
        return self._inner

    def charge_compute(self, seconds: float) -> None:
        """Charge simulated compute to the wrapped communicator's clock."""
        self._inner.charge_compute(seconds)

    @property
    def simulated_time(self) -> float | None:
        return self._inner.simulated_time

    def _send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._inner._send(obj, dest, tag)

    def _recv(self, source: int, tag: int = 0) -> Any:
        return self._inner._recv(source, tag)

    def _try_recv(self, source: int, tag: int = 0) -> tuple[bool, Any]:
        return self._inner._try_recv(source, tag)

    def _barrier(self) -> None:
        self._inner._barrier()

    def _exchange(self, key: str, payload: Any) -> list[Any]:
        return self._inner._exchange(key, payload)

    # -- point to point ----------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking-buffered send (point-to-point is not stamped)."""
        self._inner.send(obj, dest, tag)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive with a deadline: a message that never arrives
        (mismatched tags, dead peer) raises SAN104 instead of hanging."""
        if not self._polling_ok:
            return self._inner.recv(source, tag)
        deadline = time.monotonic() + self._timeout
        while True:
            try:
                found, payload = self._inner._try_recv(source, tag)
            except CommunicatorError:
                # Backend without nonblocking receives: sanitize nothing.
                self._polling_ok = False
                return self._inner.recv(source, tag)
            if found:
                if self.stats is not None:
                    self.stats.recvs += 1
                return payload
            if time.monotonic() >= deadline:
                raise SanitizerError(
                    f"SAN104: rank {self._rank} recv(source={source}, "
                    f"tag={tag}) timed out after {self._timeout:.1f}s at "
                    f"{_call_site()} — no matching send arrived (swapped "
                    "or mismatched send/recv tags?)"
                )
            time.sleep(self._POLL_SECONDS)

    # -- publications (dataflow substrate) ----------------------------------
    def declare_publication_schedule(
        self,
        *,
        dep_lo,
        dep_hi,
        expected_installs: int = 0,
    ) -> None:
        """Arm publication validation with the executor's derived plan.

        The dataflow executor calls this (when present — the hook is
        looked up with ``getattr``) before its arc loop, handing over the
        ``inner_ranges`` dependency bounds its
        :class:`~repro.parallel.dataflow.DataflowPlan` derived.  Every
        subsequent :meth:`Publish` is then checked **locally** against
        the declared right-endpoint schedule: the check needs no
        cross-rank rendezvous because the legality invariant —
        dependencies publish strictly before their readers — is a
        property of each rank's own publication stream.
        """
        self._pub_schedule = {
            "dep_lo": np.asarray(dep_lo, dtype=np.int64),
            "dep_hi": np.asarray(dep_hi, dtype=np.int64),
            "expected_installs": int(expected_installs),
        }
        self._published_arcs = set()

    def Publish(
        self, key: Any, payload: Any, dest: int, *, urgent: bool = False
    ) -> None:
        """Validated publication: checked against the declared schedule
        (SAN204/SAN205) before the cells are buffered for coalescing."""
        self._validate_publication(key)
        super().Publish(key, payload, dest, urgent=urgent)

    def _validate_publication(self, key: Any) -> None:
        schedule = self._pub_schedule
        if schedule is None:
            return
        start = time.perf_counter()
        dep_lo, dep_hi = schedule["dep_lo"], schedule["dep_hi"]
        kind, index = (
            key if isinstance(key, tuple) and len(key) == 2 else (None, None)
        )
        if kind == "final":
            # Consolidation block: legal once the arc loop is done, and
            # only for this rank's own owned block.
            if index != self._rank:
                raise SanitizerError(
                    f"SAN204: rank {self._rank} published consolidation "
                    f"block {key!r} for a block it does not own at "
                    f"{_call_site()}"
                )
        elif kind != "row" or not 0 <= int(index) < len(dep_lo):
            raise SanitizerError(
                f"SAN204: rank {self._rank} published stray key {key!r} — "
                "not a cell the declared dataflow schedule ever publishes "
                f"(at {_call_site()})"
            )
        else:
            arc = int(index)
            missing = [
                d
                for d in range(int(dep_lo[arc]), int(dep_hi[arc]))
                if d not in self._published_arcs
            ]
            if missing:
                raise SanitizerError(
                    f"SAN205: rank {self._rank} published arc {arc} "
                    f"before its dependencies {missing[:8]} — "
                    "the declared right-endpoint publication order is "
                    "violated, so a consumer's d1/d2 read at the matched "
                    f"arc would use an unpublished cell (Publish at "
                    f"{_call_site()})"
                )
            self._published_arcs.add(arc)
        if self.stats is not None:
            self.stats.sanitizer_checks += 1
            self.stats.sanitizer_ns += int(
                (time.perf_counter() - start) * 1e9
            )

    def _recv_publication(self, source: int) -> Any:
        """Deadline-polled publication receive: a batch that never
        arrives (illegal publication order, dead peer) raises SAN104
        instead of hanging in :meth:`Await`."""
        if not self._polling_ok:
            return self._inner._recv(source, _PUBLISH_TAG)
        deadline = time.monotonic() + self._timeout
        while True:
            try:
                found, payload = self._inner._try_recv(source, _PUBLISH_TAG)
            except CommunicatorError:
                self._polling_ok = False
                return self._inner._recv(source, _PUBLISH_TAG)
            if found:
                return payload
            if time.monotonic() >= deadline:
                declared = (
                    f" (the executor declared "
                    f"{self._pub_schedule['expected_installs']} producer "
                    "streams)"
                    if self._pub_schedule is not None
                    else ""
                )
                raise SanitizerError(
                    f"SAN104: rank {self._rank} awaiting a publication "
                    f"from rank {source} timed out after "
                    f"{self._timeout:.1f}s at {_call_site()} — the "
                    "producer never published the awaited cells"
                    f"{declared}"
                )
            time.sleep(self._POLL_SECONDS)

    # -- collectives -------------------------------------------------------
    def barrier(self) -> None:
        """Validated barrier: stamps rendezvous before the real barrier."""
        self._validate_collective("barrier")
        self._inner.barrier()

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Validated broadcast (root cross-checked across ranks)."""
        self._validate_collective("bcast", root=root)
        return self._inner.bcast(obj, root)

    def allgather(self, obj: Any) -> list[Any]:
        """Validated allgather."""
        self._validate_collective("allgather")
        return self._inner.allgather(obj)

    def allreduce(self, value: Any, op: ReduceOp = ReduceOp.SUM) -> Any:
        """Validated object allreduce (reduce op cross-checked)."""
        self._validate_collective("allreduce", reduce_op=str(op))
        return self._inner.allreduce(value, op)

    def Allreduce(self, buffer: np.ndarray, op: ReduceOp = ReduceOp.MAX) -> None:
        """Validated in-place buffer reduction.

        Stamps op/dtype/shape, runs the memo-race window check when
        *buffer* is a row of a guarded table, then delegates.
        """
        if isinstance(buffer, np.ndarray):
            self._validate_collective(
                "Allreduce",
                reduce_op=str(op),
                dtype=str(buffer.dtype),
                shape=tuple(buffer.shape),
            )
            guard, row = self._find_guard(buffer)
            if guard is not None:
                self._check_memo_window(guard, row, buffer)
        else:
            self._validate_collective("Allreduce", reduce_op=str(op))
            guard = None
        self._inner.Allreduce(buffer, op)
        if guard is not None:
            self._refresh_guard(guard, row, buffer)

    # -- memo-table race detection ----------------------------------------
    def guard_memo(self, table, owned_columns=None) -> SanitizedMemoTable:
        """Register *table* for race detection; returns a sanitized view.

        *table* is an :class:`~repro.core.memo.ArcMemoTable` (whose
        ``arcs`` rows are guarded), anything with a ``values`` array, or
        the array itself.  *owned_columns* is the set of column indices
        this rank may write between synchronizations (``None`` disables
        the ownership check, keeping only the cross-rank overlap and
        read/write checks).
        """
        if hasattr(table, "arcs"):
            buffer = table.arcs
        else:
            buffer = table.values if hasattr(table, "values") else table
        guard = _MemoGuard(np.asarray(buffer), owned_columns)
        self._guards.append(guard)
        return SanitizedMemoTable(table, guard)

    def _find_guard(self, buffer: np.ndarray):
        for guard in self._guards:
            row = guard.locate_row(buffer)
            if row is not None:
                return guard, row
        return None, None

    def _check_memo_window(
        self, guard: _MemoGuard, row: int, buffer: np.ndarray
    ) -> None:
        """Collective validation of one row's write window (pre-reduce)."""
        site = _call_site()
        changed = np.flatnonzero(buffer != guard.shadow[row])
        stray = (
            np.setdiff1d(changed, guard.owned_cols)
            if guard.owned_cols is not None
            else np.empty(0, dtype=np.int64)
        )
        reads = sorted(guard.reads.pop(row, ()))
        payload = {
            "rank": self._rank,
            "row": int(row),
            "changed": changed.tolist(),
            "stray": stray.tolist(),
            "reads": reads,
            "site": site,
        }
        # One rendezvous so *every* rank sees the verdict and raises the
        # same diagnostic — no survivor is left blocking in the backend.
        reports = self._inner._exchange("sanitizer:memo", payload)
        for report in reports:
            if report["stray"]:
                cells = ", ".join(
                    f"({report['row']}, {col})" for col in report["stray"][:8]
                )
                raise SanitizerError(
                    f"SAN202: rank {report['rank']} wrote outside its owned "
                    f"partition in the Allreduce window: cells {cells} "
                    f"(Allreduce at {report['site']})"
                )
        for i, left in enumerate(reports):
            left_changed = set(left["changed"])
            for right in reports[i + 1:]:
                overlap = left_changed & set(right["changed"])
                if overlap:
                    col = min(overlap)
                    raise SanitizerError(
                        f"SAN201: ranks {left['rank']} and {right['rank']} "
                        f"both wrote cell ({left['row']}, {col}) in the "
                        "same Allreduce window (write/write race; "
                        f"Allreduce at {left['site']})"
                    )
            for right in reports:
                if right["rank"] == left["rank"]:
                    continue
                racy = set(left["reads"]) & set(right["changed"])
                if racy:
                    col = min(racy)
                    raise SanitizerError(
                        f"SAN203: rank {left['rank']} read cell "
                        f"({left['row']}, {col}) that rank {right['rank']} "
                        "wrote in the same window (unordered read/write; "
                        f"Allreduce at {left['site']})"
                    )

    @staticmethod
    def _refresh_guard(
        guard: _MemoGuard, row: int, buffer: np.ndarray
    ) -> None:
        guard.shadow[row] = buffer

    # -- stamp rendezvous --------------------------------------------------
    def _validate_collective(self, name: str, **meta: Any) -> None:
        start = time.perf_counter()
        seq, self._seq = self._seq, self._seq + 1
        stamp = {"seq": seq, "op": name, "site": _call_site(), **meta}
        if self._tracer is not None:
            with self._tracer.span(
                "sanitizer_check", rank=self._rank, category="sanitizer",
                op=name, seq=seq,
            ):
                self._rendezvous(stamp)
        else:
            self._rendezvous(stamp)
        if self.stats is not None:
            self.stats.sanitizer_checks += 1
            self.stats.sanitizer_ns += int(
                (time.perf_counter() - start) * 1e9
            )

    def _rendezvous(self, stamp: dict) -> None:
        if self._size == 1 or not self._polling_ok:
            return
        deadline = time.monotonic() + self._timeout
        if self._rank == 0:
            stamps: list[dict | None] = [None] * self._size
            stamps[0] = stamp
            waiting = set(range(1, self._size))
            while waiting:
                for source in sorted(waiting):
                    try:
                        found, payload = self._inner._try_recv(
                            source, self._STAMP_TAG
                        )
                    except CommunicatorError:
                        self._polling_ok = False
                        return
                    if found:
                        stamps[source] = payload
                        waiting.discard(source)
                if not waiting:
                    break
                if time.monotonic() >= deadline:
                    missing = ", ".join(str(r) for r in sorted(waiting))
                    raise SanitizerError(
                        f"SAN103: rank(s) {missing} never arrived at "
                        f"collective #{stamp['seq']} ({stamp['op']}) within "
                        f"{self._timeout:.1f}s — rank 0 is waiting at "
                        f"{stamp['site']} (rank-conditional collective or "
                        "a peer hung?)"
                    )
                time.sleep(self._POLL_SECONDS)
            verdict = self._validate_stamps(stamps)
            for dest in range(1, self._size):
                self._inner._send(verdict, dest, self._VERDICT_TAG)
            if verdict is not None:
                raise SanitizerError(verdict)
        else:
            self._inner._send(stamp, 0, self._STAMP_TAG)
            while True:
                try:
                    found, verdict = self._inner._try_recv(
                        0, self._VERDICT_TAG
                    )
                except CommunicatorError:
                    self._polling_ok = False
                    return
                if found:
                    break
                if time.monotonic() >= deadline:
                    raise SanitizerError(
                        f"SAN103: rank {self._rank} got no sanitizer "
                        f"verdict for collective #{stamp['seq']} "
                        f"({stamp['op']}, called at {stamp['site']}) within "
                        f"{self._timeout:.1f}s — rank 0 diverged or hung"
                    )
                time.sleep(self._POLL_SECONDS)
            if verdict is not None:
                raise SanitizerError(verdict)

    @staticmethod
    def _validate_stamps(stamps: list[dict | None]) -> str | None:
        reference = stamps[0]
        assert reference is not None
        for rank, stamp in enumerate(stamps[1:], start=1):
            assert stamp is not None
            if stamp["seq"] != reference["seq"] or stamp["op"] != reference["op"]:
                return (
                    f"SAN101: collective sequence diverged — rank 0 is at "
                    f"#{reference['seq']} {reference['op']} "
                    f"({reference['site']}) but rank {rank} is at "
                    f"#{stamp['seq']} {stamp['op']} ({stamp['site']})"
                )
            for key in ("reduce_op", "dtype", "shape", "root"):
                if stamp.get(key) != reference.get(key):
                    return (
                        f"SAN102: collective #{reference['seq']} "
                        f"{reference['op']} metadata mismatch — rank 0 has "
                        f"{key}={reference.get(key)!r} ({reference['site']}) "
                        f"but rank {rank} has {key}={stamp.get(key)!r} "
                        f"({stamp['site']})"
                    )
        return None
