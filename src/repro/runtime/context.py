"""Layer 2 of the solver stack: the execution context.

:class:`ExecutionContext` is the *single* place in the tree that
constructs and owns the run-scoped machinery every entry point used to
wire by hand: the communicator world (``self``/``thread``/``process``
backends), the :class:`~repro.check.sanitizer.SanitizedCommunicator`
wrapper, the :class:`~repro.obs.tracer.Tracer`, the parent-owned result
table and the :mod:`repro.obs` run-record log.

One tracer serves every backend: thread and self ranks record into it
directly, and :meth:`ExecutionContext.launch` ships each forked process
rank's spans back with its result, so a traced run plans and runs exactly
like an untraced one.

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
from repro.core.memo import ArcMemoTable
from repro.errors import SimulationError
from repro.mpi.communicator import Communicator, SelfCommunicator
from repro.mpi.costmodel import CostModel
from repro.mpi.inprocess import run_threaded
from repro.mpi.process import run_multiprocess
from repro.obs.runrecord import RunRecord, append_run_record, new_run_id
from repro.obs.tracer import Tracer
from repro.runtime.plan import Plan
from repro.structure.arcs import Structure

__all__ = [
    "ExecutionContext",
    "sanitize_communicator",
]

#: The sanctioned raw-construction table (see module docstring): every
#: direct communicator/tracer/result-table construction in the tree lives
#: in this one suppressed line, and the helpers below are the only callers.
_RAW: dict[str, Callable[..., Any]] = dict(tracer=lambda: Tracer(), sanitize=lambda comm, timeout, tracer: SanitizedCommunicator(comm, timeout=timeout, tracer=tracer), self_comm=lambda clock, cost_model: SelfCommunicator(clock, cost_model), result_memo=lambda s1, s2: ArcMemoTable.wrap(np.frombuffer(mmap.mmap(-1, max(s1.n_arcs * s2.n_arcs * 8, 1)), dtype=np.int64, count=s1.n_arcs * s2.n_arcs).reshape(s1.n_arcs, s2.n_arcs), s1, s2), threaded=lambda *a, **k: run_threaded(*a, **k), multiprocess=lambda *a, **k: run_multiprocess(*a, **k))  # noqa: ARCH001


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
        run_log_path: str | None = None,
        collect_stats: bool = False,
        sanitize: bool = False,
        sanitize_timeout: float = 30.0,
    ):
        if tracer is None and (trace or trace_path is not None):
            tracer = _RAW["tracer"]()
        self.tracer: Tracer | None = tracer
        self.trace_path = trace_path
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
    def result_memo(self, s1: Structure, s2: Structure) -> ArcMemoTable:
        """A zeroed arc table for ``(s1, s2)`` the ranks of a launch share.

        Backed by an anonymous ``MAP_SHARED`` mapping created in the
        calling process: forked process ranks inherit it, so the rank
        that fills it (PRNA's rank 0, the manager-worker manager) hands
        its table to the parent without pickling, and thread/self ranks
        see the same memory directly.  The mapping has no name — nothing
        in ``/dev/shm`` to leak — and is unmapped with its last reference.
        Allocate one per launch: the writer relies on it starting zeroed.
        Only the ``|A1| x |A2|`` cells are shared; the score travels with
        the rank's result, and the caller that launched the ranks sets
        ``score``.
        """
        return _RAW["result_memo"](s1, s2)

    def instrumentation(self) -> Instrumentation:
        """A fresh :class:`Instrumentation` wired to this context's tracer."""
        return Instrumentation(tracer=self.tracer)

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

        With a tracer, process ranks record into their forked copy of it
        and return the spans recorded after the fork beside their value;
        the parent merges them (:meth:`Tracer.merge`), so every backend
        yields the same one-track-per-rank trace.
        """
        if n_ranks < 1:
            raise SimulationError(f"n_ranks must be >= 1, got {n_ranks}")

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
        if backend != "process":
            raise ValueError(
                f"unknown backend {backend!r}; one of 'thread', 'process', 'self'"
            )
        tracer = self.tracer
        if tracer is None:
            return _RAW["multiprocess"](body, n_ranks, cost_model=cost_model)

        def traced(comm: Communicator) -> Any:
            inherited = len(tracer.events)
            value = body(comm)
            return value, tracer.events[inherited:]

        results = []
        for item in _RAW["multiprocess"](traced, n_ranks, cost_model=cost_model):
            if cost_model is not None:
                (value, events), simulated = item
                value = (value, simulated)
            else:
                value, events = item
            tracer.merge(events)
            results.append(value)
        return results

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
        :attr:`run_log_path` when one is configured.
        """
        params = dict(parameters or {})
        if plan is not None:
            params["plan"] = plan.to_dict()
        record = RunRecord(
            run_id=self.run_id, kind=kind, parameters=params,
            metrics=dict(metrics or {}),
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
