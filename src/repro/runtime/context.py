"""Layer 2 of the solver stack: the execution context.

:class:`ExecutionContext` is the *single* place in the tree that
constructs and owns the run-scoped machinery every entry point used to
wire by hand: the communicator world (``self``/``thread``/``process``
backends), the :class:`~repro.check.sanitizer.SanitizedCommunicator`
wrapper, the :class:`~repro.obs.tracer.Tracer`, the
:class:`~repro.obs.metrics.MetricsRegistry`, the parent-owned result
table and the :mod:`repro.obs` run-record log.

Rule ``ARCH001`` of :mod:`repro.check` enforces the ownership: direct
construction of any of these outside this module is a finding.  The one
sanctioned escape hatch is the ``_RAW`` factory table below, which keeps
every raw construction on a single suppressed line; everything else —
including the rest of *this* module — goes through the table.
"""

from __future__ import annotations

import mmap
from typing import Any, Callable, Mapping

import numpy as np

from repro.check.sanitizer import SanitizedCommunicator
from repro.core.instrument import Instrumentation
from repro.core.memo import DenseMemoTable
from repro.errors import SimulationError
from repro.mpi.communicator import Communicator, SelfCommunicator
from repro.mpi.costmodel import CostModel
from repro.mpi.inprocess import run_threaded
from repro.mpi.process import run_multiprocess
from repro.obs.metrics import MetricsRegistry
from repro.obs.runrecord import RunRecord, append_run_record, new_run_id
from repro.obs.tracer import Tracer
from repro.runtime.plan import Plan

__all__ = [
    "ExecutionContext",
    "sanitize_communicator",
]

#: The sanctioned raw-construction table (see module docstring): every
#: direct communicator/tracer/result-table construction in the tree lives
#: in this one suppressed line, and the helpers below are the only callers.
_RAW: dict[str, Callable[..., Any]] = dict(tracer=lambda: Tracer(), sanitize=lambda comm, timeout, tracer: SanitizedCommunicator(comm, timeout=timeout, tracer=tracer), self_comm=lambda clock, cost_model: SelfCommunicator(clock, cost_model), result_memo=lambda shape: DenseMemoTable.wrap(np.frombuffer(mmap.mmap(-1, shape[0] * shape[1] * 8), dtype=np.int64).reshape(shape)), threaded=lambda *a, **k: run_threaded(*a, **k), multiprocess=lambda *a, **k: run_multiprocess(*a, **k))  # noqa: ARCH001


def sanitize_communicator(
    comm: Communicator,
    *,
    timeout: float = 30.0,
    tracer: Tracer | None = None,
) -> Communicator:
    """Wrap *comm* in the runtime SPMD sanitizer (idempotent)."""
    if isinstance(comm, SanitizedCommunicator):
        return comm
    return _RAW["sanitize"](comm, timeout, tracer)


class ExecutionContext:
    """Owns the run-scoped machinery of one solve (or one CLI command).

    Parameters
    ----------
    tracer:
        A caller-owned tracer to adopt; default: construct one when
        *trace* or *trace_path* asks for tracing, else ``None``.
    trace, trace_path:
        Enable span recording; :meth:`write_trace` (also called on
        context-manager exit) writes Chrome trace JSON to *trace_path*.
    metrics:
        A caller-owned :class:`MetricsRegistry` to adopt (default: own a
        fresh one).
    run_log_path:
        JSONL run-record log; :meth:`record` appends there.  Records are
        also kept in memory (:attr:`records`) either way.
    collect_stats:
        Enable ``CommStats`` counters on every communicator the context
        launches (:meth:`launch` calls ``enable_stats`` per rank).
    sanitize, sanitize_timeout:
        Wrap rank communicators with the SPMD sanitizer.
    """

    def __init__(
        self,
        *,
        tracer: Tracer | None = None,
        trace: bool = False,
        trace_path: str | None = None,
        metrics: MetricsRegistry | None = None,
        run_log_path: str | None = None,
        collect_stats: bool = False,
        sanitize: bool = False,
        sanitize_timeout: float = 30.0,
    ):
        if tracer is None and (trace or trace_path is not None):
            tracer = _RAW["tracer"]()
        self.tracer: Tracer | None = tracer
        self.trace_path = trace_path
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.run_log_path = run_log_path
        self.collect_stats = collect_stats
        self.sanitize = sanitize
        self.sanitize_timeout = sanitize_timeout
        self.run_id = new_run_id()
        self.records: list[RunRecord] = []

    # ------------------------------------------------------------------
    # Context-manager protocol: flush the trace on the way out.
    # ------------------------------------------------------------------
    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.write_trace()
        return False

    # ------------------------------------------------------------------
    def result_memo(self, n: int, m: int) -> DenseMemoTable:
        """A zeroed ``(n, m)`` result table the ranks of a launch share.

        Backed by an anonymous ``MAP_SHARED`` mapping created in the
        calling process: forked process ranks inherit it, so the rank
        that fills it (PRNA's rank 0, the manager-worker manager) hands
        its table to the parent without pickling, and thread/self ranks
        see the same memory directly.  The mapping has no name — nothing
        in ``/dev/shm`` to leak — and is unmapped with its last reference.
        Allocate one per launch: the writer relies on it starting zeroed.
        """
        return _RAW["result_memo"]((max(n, 1), max(m, 1)))

    def instrumentation(self) -> Instrumentation:
        """A fresh :class:`Instrumentation` wired to this context's tracer."""
        return Instrumentation(tracer=self.tracer)

    def self_communicator(self, cost_model: CostModel | None = None) -> Communicator:
        """The trivial single-rank world (virtual clock with *cost_model*)."""
        clock = None
        if cost_model is not None:
            from repro.mpi.virtualtime import VirtualClock

            clock = VirtualClock()
        comm: Communicator = _RAW["self_comm"](clock, cost_model)
        return self._prepare(comm)

    def _prepare(self, comm: Communicator) -> Communicator:
        """Apply this context's per-rank communicator policy."""
        if self.collect_stats:
            comm.enable_stats()
        if self.sanitize:
            comm = sanitize_communicator(
                comm, timeout=self.sanitize_timeout, tracer=self.tracer
            )
        return comm

    def launch(
        self,
        rank_main: Callable[[Communicator], Any],
        *,
        n_ranks: int = 1,
        backend: str = "thread",
        cost_model: CostModel | None = None,
    ) -> list[Any]:
        """Run *rank_main* on an *n_ranks* world; per-rank results, rank order.

        The single dispatch point over the ``self``/``thread``/``process``
        backends (previously duplicated in the PRNA driver and the
        experiment harness).  With *cost_model*, virtual clocks are
        enabled and each result is a ``(value, simulated_seconds)`` pair.
        The context's ``collect_stats`` policy is applied inside each
        rank; sanitizer wrapping stays with the algorithm body (which
        knows the memo ownership to register), via
        :func:`sanitize_communicator`.
        """
        if n_ranks < 1:
            raise SimulationError(f"n_ranks must be >= 1, got {n_ranks}")
        if self.tracer is not None and backend == "process":
            raise SimulationError(
                "tracing requires the 'thread' or 'self' backend; process "
                "ranks cannot record into a shared in-memory tracer"
            )

        def body(comm: Communicator) -> Any:
            if self.collect_stats:
                comm.enable_stats()
            return rank_main(comm)

        if backend == "self":
            if n_ranks != 1:
                raise SimulationError(
                    "backend 'self' supports exactly one rank"
                )
            clock = None
            if cost_model is not None:
                from repro.mpi.virtualtime import VirtualClock

                clock = VirtualClock()
            comm = _RAW["self_comm"](clock, cost_model)
            result = body(comm)
            if cost_model is not None:
                return [(result, comm.simulated_time)]
            return [result]
        if backend == "thread":
            return _RAW["threaded"](body, n_ranks, cost_model=cost_model)
        if backend == "process":
            return _RAW["multiprocess"](body, n_ranks, cost_model=cost_model)
        raise ValueError(
            f"unknown backend {backend!r}; one of 'thread', 'process', 'self'"
        )

    # ------------------------------------------------------------------
    def record(
        self,
        kind: str,
        parameters: Mapping[str, Any] | None = None,
        metrics: Mapping[str, Any] | None = None,
        *,
        plan: Plan | None = None,
    ) -> RunRecord:
        """Append a run record — with the serialized plan — to the log.

        Records always accumulate on :attr:`records`; they are written to
        :attr:`run_log_path` when one is configured.  A non-empty metrics
        registry snapshot rides along under ``metrics["instruments"]``.
        """
        params = dict(parameters or {})
        if plan is not None:
            params["plan"] = plan.to_dict()
        payload = dict(metrics or {})
        snapshot = self.metrics.as_dict()
        if any(snapshot.values()):
            payload.setdefault("instruments", snapshot)
        record = RunRecord(
            run_id=self.run_id, kind=kind, parameters=params, metrics=payload
        )
        self.records.append(record)
        if self.run_log_path is not None:
            append_run_record(self.run_log_path, record)
        return record

    def write_trace(self, path: str | None = None) -> str | None:
        """Write the trace to *path* (default: *trace_path*); returns it."""
        target = path if path is not None else self.trace_path
        if self.tracer is None or target is None:
            return None
        self.tracer.write(target)
        return target
