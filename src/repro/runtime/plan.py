"""Layer 1 of the solver stack: plans and the planner.

A :class:`Plan` is a fully resolved, explainable execution decision:
which algorithm, slice engine, backend, world size, partition strategy,
stage-one schedule and sanitizer setting a solve should run with.  A
:class:`Planner` produces plans from two structures (or a query + target
collection) plus :class:`ResourceHints`, using the calibrated work model
(:mod:`repro.perf.model` — replaceable with a host fit from
:func:`repro.perf.calibrate.calibrate_work_model`) and the communication
cost model (:mod:`repro.mpi.costmodel`).

The central decision is the paper's Figure 8 tension made automatic:
below a modeled work threshold the per-row synchronization tax of PRNA
cannot pay for itself and plain SRNA2 wins; above it the planner models
candidate world sizes and picks the fastest.  Every PRNA price comes from
the simulator's per-stage model
(:meth:`repro.parallel.simulator.PRNASimulator.price`) over the real
column partition: ``sync_mode="auto"`` compares the row barrier (per-row
slowest rank plus one collective per arc) against the dataflow schedule
(slowest rank's total plus point-to-point publication traffic), both
with a latency/bandwidth spec preferring the measured on-node calibration
(:func:`repro.perf.calibrate.calibrate_cluster_spec`, ``make calibrate``)
over built-in defaults, never the paper's Fundy constants.  Dynamic
manager-worker scheduling is selected only when the caller declares the
per-task costs unpredictable (``ResourceHints(predictable_costs=False)``)
— for this workload the costs are an outer product of known arc weights,
which is exactly why the paper's static greedy partition wins (§II).

Every decision appends a human-readable rationale line; ``plan.explain()``
renders them and :meth:`Plan.to_dict` serializes the whole plan into
:mod:`repro.obs` run records so any measurement can be traced back to the
configuration that produced it.
"""

from __future__ import annotations

import functools
import os
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.mpi.costmodel import ClusterSpec
from repro.perf.model import WorkModel
from repro.runtime.registry import (
    AUTO,
    BATCH_ALGORITHMS,
    PARALLEL_ALGORITHMS,
    cost_contract_for,
    engine_applies,
    validate_choice,
)
from repro.structure.arcs import Structure

if TYPE_CHECKING:
    from repro.parallel.simulator import SimulationReport

#: ``price(n_ranks, sync_mode)`` for one plan's pair.
Pricer = Callable[[int, str], "SimulationReport"]

__all__ = [
    "PARALLEL_THRESHOLD_SECONDS",
    "Plan",
    "Planner",
    "ResourceHints",
    "local_cluster",
]

#: Modeled sequential seconds below which parallel execution cannot
#: amortize its per-row synchronization (the Figure 8 small-problem
#: regime) and the planner stays with plain SRNA2.
PARALLEL_THRESHOLD_SECONDS = 0.5


def local_cluster(cores: int) -> ClusterSpec:
    """Cost-model spec for *this* machine (one node, shared memory).

    The default :data:`~repro.mpi.costmodel.DEFAULT_CLUSTER` is calibrated
    to the paper's Fundy cluster, whose per-collective overhead (10 ms)
    would veto intra-node parallelism that is in fact profitable; local
    backends synchronize through memory, so latency terms drop by orders
    of magnitude while the memory-contention term stays.
    """
    return ClusterSpec(
        cores_per_node=max(cores, 1),
        n_nodes=1,
        alpha=2.0e-6,
        beta=2.0e-10,
        sync_overhead=2.0e-5,
        contention=0.05,
    )


@dataclass(frozen=True)
class ResourceHints:
    """What the planner may assume about the machine and the workload.

    Parameters
    ----------
    max_ranks:
        Upper bound on the world size (default: ``os.cpu_count()``).
    backend:
        ``"auto"`` (default) or a concrete backend name to pin.
    memory_bytes:
        Optional memory budget; the memo footprint estimate is checked
        against it and recorded in the rationale.
    predictable_costs:
        ``True`` (default) for this recurrence — per-slice costs are a
        known outer product, so static greedy partitioning wins.  ``False``
        declares heterogeneous/unknown task costs and switches ``auto`` to
        the dynamic manager-worker scheme.
    trace:
        The run will carry an in-memory tracer; rules out the process
        backend (its ranks cannot share one).
    work_model:
        Calibration data — e.g. the host fit from
        :func:`repro.perf.calibrate.calibrate_work_model`.  Default: the
        paper-calibrated :meth:`WorkModel.default`.
    cluster:
        Cost-model spec; default :func:`local_cluster` over *max_ranks*.
    """

    max_ranks: int | None = None
    backend: str = AUTO
    memory_bytes: int | None = None
    predictable_costs: bool = True
    trace: bool = False
    work_model: WorkModel | None = None
    cluster: ClusterSpec | None = None

    def resolved_max_ranks(self) -> int:
        """The rank budget: ``max_ranks`` if set, else the CPU count."""
        if self.max_ranks is not None:
            return max(int(self.max_ranks), 1)
        return max(os.cpu_count() or 1, 1)


@dataclass(frozen=True)
class Plan:
    """A fully resolved execution decision (see module docstring)."""

    algorithm: str
    engine: str | None
    backend: str
    n_ranks: int
    partitioner: str = "greedy"
    sync_mode: str = "row"
    sanitize: bool = False
    checkpoint_path: str | None = None
    workload: str = "pair"  # "pair" (one comparison) or "search" (batch)
    estimated_sequential_seconds: float = 0.0
    estimated_seconds: float = 0.0
    #: ``(stage, seconds)`` terms of the model behind ``estimated_seconds``.
    predicted_stages: tuple[tuple[str, float], ...] = ()
    rationale: tuple[str, ...] = field(default=(), repr=False)

    def explain(self) -> str:
        """Human-readable plan summary plus the planner's rationale."""
        engine = self.engine if self.engine is not None else "n/a"
        header = (
            f"plan[{self.workload}]: algorithm={self.algorithm} "
            f"engine={engine} backend={self.backend} ranks={self.n_ranks} "
            f"partitioner={self.partitioner} sync={self.sync_mode}"
        )
        lines = [header]
        lines.extend(f"  - {reason}" for reason in self.rationale)
        return "\n".join(lines)

    @property
    def shared_memory(self) -> bool:
        """Always ``False``: memo rows synchronize over the communicator.

        Kept only for callers that still forward it to
        :func:`repro.parallel.prna.prna_rank`.
        """
        return False

    def cost_contract(self):
        """The registry :class:`CostContract` of the chosen engine, if any."""
        if self.engine is None:
            return None
        return cost_contract_for(f"engine:{self.engine}")

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form, embedded in every run record."""
        payload = asdict(self)
        payload["rationale"] = list(self.rationale)
        payload["predicted_stages"] = dict(self.predicted_stages)
        payload["explain"] = self.explain()
        contract = self.cost_contract()
        if contract is not None:
            payload["cost_contract"] = {
                "key": contract.key,
                "entry": contract.entry,
                "degree": contract.degree,
                "polynomial": contract.polynomial,
            }
        return payload


class Planner:
    """Layer 1: resolve ``auto`` choices into an explainable :class:`Plan`."""

    def __init__(
        self,
        hints: ResourceHints | None = None,
        *,
        threshold_seconds: float = PARALLEL_THRESHOLD_SECONDS,
    ):
        self.hints = hints or ResourceHints()
        self.threshold_seconds = float(threshold_seconds)

    # ------------------------------------------------------------------
    def _calibration(self) -> dict | None:
        """The calibration record, read once per plan and only when a
        hint leaves the work model or the cluster spec open."""
        if self.hints.work_model is not None and self.hints.cluster is not None:
            return None
        from repro.perf.calibrate import _load_payload

        return _load_payload(None)

    def _work_model(self, record: dict | None) -> tuple[WorkModel, str]:
        """The work model and a rationale-ready source note.

        Preference order: the caller's model, the measured on-node
        calibration *record*, and the paper's calibration.
        """
        if self.hints.work_model is not None:
            return self.hints.work_model, "caller calibration"
        from repro.perf.calibrate import _work_model_from

        measured = _work_model_from(record)
        if measured is not None:
            return measured, "measured on-node calibration"
        return WorkModel.default(), "paper calibration"

    def _resolve_cluster(
        self, max_ranks: int, record: dict | None
    ) -> tuple[ClusterSpec, str]:
        """The communication cost spec and a rationale-ready source note.

        Preference order: a caller-provided spec, the measured on-node
        calibration *record* (``make calibrate`` /
        :func:`repro.perf.calibrate.calibrate_cluster_spec`), and only
        then the built-in local-cluster defaults — never the paper's
        Fundy constants, whose 10 ms collectives describe a different
        machine entirely.
        """
        if self.hints.cluster is not None:
            return self.hints.cluster, "caller-provided cluster spec"
        from repro.perf.calibrate import _cluster_from, calibration_path

        spec = _cluster_from(record)
        if spec is not None:
            return spec, (
                f"measured on-node calibration ({calibration_path(None)})"
            )
        return local_cluster(max_ranks), (
            "built-in local-cluster defaults (run `make calibrate` for a "
            "measured fit)"
        )

    @staticmethod
    def _schedule(
        price: Pricer, n_ranks: int, sync_mode: str
    ) -> tuple[str, SimulationReport]:
        """The stage-one schedule *sync_mode* resolves to, with its price.

        ``"auto"`` is the cheaper of the row barrier and the dataflow
        schedule, the row barrier on a tie.
        """
        modes = ("row", "dataflow") if sync_mode == AUTO else (sync_mode,)
        return min(
            ((mode, price(n_ranks, mode)) for mode in modes),
            key=lambda priced: priced[1].total_seconds,
        )

    @staticmethod
    def _candidate_ranks(max_ranks: int) -> list[int]:
        ranks, p = [], 2
        while p <= max_ranks:
            ranks.append(p)
            p *= 2
        if max_ranks >= 2 and max_ranks not in ranks:
            ranks.append(max_ranks)
        return ranks

    # ------------------------------------------------------------------
    def plan(
        self,
        s1: Structure,
        s2: Structure,
        *,
        algorithm: str = AUTO,
        engine: str = AUTO,
        backend: str | None = None,
        n_ranks: int | None = None,
        partitioner: str = "greedy",
        sync_mode: str = AUTO,
        sanitize: bool = False,
        checkpoint_path: str | None = None,
        with_backtrace: bool = False,
    ) -> Plan:
        """Resolve a plan for one structure comparison."""
        from repro.parallel.simulator import STAGE_TERMS, PRNASimulator

        algorithm = validate_choice("algorithm", algorithm, allow_auto=True)
        engine = validate_choice("engine", engine, allow_auto=True)
        partitioner = validate_choice("partitioner", partitioner)
        sync_mode = validate_choice("sync_mode", sync_mode, allow_auto=True)
        hinted_backend = backend if backend is not None else self.hints.backend
        hinted_backend = validate_choice(
            "backend", hinted_backend, allow_auto=True
        )

        hints = self.hints
        max_ranks = hints.resolved_max_ranks()
        record = self._calibration()
        wm, wm_source = self._work_model(record)
        cluster, cluster_source = self._resolve_cluster(max_ranks, record)
        # Every PRNA price below is this pair's simulator model, memoized
        # per (n_ranks, sync_mode).
        simulator = PRNASimulator(
            cluster=cluster, work_model=wm, partitioner=partitioner
        )
        price: Pricer = functools.lru_cache(maxsize=None)(
            functools.partial(simulator.price, s1, s2)
        )
        sequential = wm.total_sequential_seconds(s1, s2)
        rationale: list[str] = [
            f"modeled sequential SRNA2 time {sequential:.3g} s "
            f"({wm.seconds_per_cell:.3g} s/cell, {wm_source})",
        ]

        chosen_ranks = n_ranks
        if algorithm == AUTO and checkpoint_path is not None:
            algorithm = "srna2"
            rationale.append(
                "checkpointing requested -> srna2 (the stage-one checkpoint "
                "store is defined over its arc-major tabulation order)"
            )
            chosen_ranks = 1
        if algorithm == AUTO:
            algorithm, chosen_ranks = self._choose_algorithm(
                sequential, max_ranks, price, n_ranks,
                with_backtrace, rationale, sync_mode=sync_mode,
            )
        else:
            rationale.append(f"algorithm {algorithm!r} requested by caller")
        if algorithm in PARALLEL_ALGORITHMS:
            if chosen_ranks is None:
                chosen_ranks = self._choose_ranks(
                    sequential, max_ranks, price, rationale,
                    sync_mode=sync_mode,
                )
        else:
            chosen_ranks = 1

        engine = self._choose_engine(algorithm, engine, rationale)
        resolved_backend = self._choose_backend(
            algorithm, hinted_backend, chosen_ranks, rationale
        )
        if sync_mode == AUTO:
            if algorithm == "prna":
                sync_mode = self._choose_sync_mode(
                    s1, chosen_ranks, price, cluster_source, rationale
                )
            else:
                sync_mode = "row"
        self._note_memory(s1, s2, chosen_ranks, resolved_backend, rationale)
        if sanitize:
            rationale.append(
                "runtime SPMD sanitizer requested (bit-identical results, "
                "overhead reported in CommStats)"
            )
        if checkpoint_path is not None:
            rationale.append(f"stage-one checkpoints at {checkpoint_path!r}")
        # Only PRNA is priced per configuration; every other algorithm
        # carries the sequential model.
        if algorithm == "prna":
            report = price(chosen_ranks, sync_mode)
            estimated, predicted = report.total_seconds, report.stages()
        else:
            estimated, predicted = sequential, dict(zip(STAGE_TERMS, (
                wm.preprocessing_seconds(s1, s2), wm.stage_one_seconds(s1, s2),
                0.0, wm.parent_slice_seconds(s1, s2),
            )))

        return Plan(
            algorithm=algorithm,
            engine=engine,
            backend=resolved_backend,
            n_ranks=chosen_ranks,
            partitioner=partitioner,
            sync_mode=sync_mode,
            sanitize=sanitize,
            checkpoint_path=checkpoint_path,
            workload="pair",
            estimated_sequential_seconds=sequential,
            estimated_seconds=estimated,
            predicted_stages=tuple(predicted.items()),
            rationale=tuple(rationale),
        )

    # ------------------------------------------------------------------
    def _choose_algorithm(
        self,
        sequential: float,
        max_ranks: int,
        price: Pricer,
        n_ranks: int | None,
        with_backtrace: bool,
        rationale: list[str],
        sync_mode: str = AUTO,
    ) -> tuple[str, int | None]:
        if with_backtrace:
            rationale.append(
                "backtrace requested -> srna2 (keeps the memo table the "
                "backtracer re-tabulates against)"
            )
            return "srna2", 1
        if sequential < self.threshold_seconds:
            rationale.append(
                f"below the {self.threshold_seconds:g} s parallel threshold "
                "-> plain srna2 (per-row synchronization cannot pay for "
                "itself; Figure 8 small-problem regime)"
            )
            return "srna2", 1
        if max_ranks < 2:
            rationale.append(
                "work exceeds the parallel threshold but only one rank is "
                "available -> srna2"
            )
            return "srna2", 1
        if not self.hints.predictable_costs:
            rationale.append(
                "per-task costs declared unpredictable -> dynamic "
                "manager-worker scheduling (static balance needs a cost "
                "model; HiCOMB 2009 regime)"
            )
            return "managerworker", n_ranks
        ranks = self._choose_ranks(
            sequential, max_ranks, price, rationale, requested=n_ranks,
            sync_mode=sync_mode,
        )
        rationale.append(
            f"exceeds the {self.threshold_seconds:g} s threshold -> prna "
            "(static column partition across ranks)"
        )
        return "prna", ranks

    def _choose_ranks(
        self,
        sequential: float,
        max_ranks: int,
        price: Pricer,
        rationale: list[str],
        requested: int | None = None,
        sync_mode: str = AUTO,
    ) -> int:
        if requested is not None:
            _, report = self._schedule(price, requested, sync_mode)
            rationale.append(
                f"world size {requested} requested by caller "
                f"(modeled {report.total_seconds:.3g} s)"
            )
            return requested
        best_ranks, best_seconds = 1, sequential
        for ranks in self._candidate_ranks(max_ranks):
            _, report = self._schedule(price, ranks, sync_mode)
            if report.total_seconds < best_seconds:
                best_ranks, best_seconds = ranks, report.total_seconds
        speedup = sequential / best_seconds if best_seconds > 0 else 1.0
        rationale.append(
            f"modeled best world size P={best_ranks} of <= {max_ranks}: "
            f"{best_seconds:.3g} s ({speedup:.1f}x modeled speedup)"
        )
        return best_ranks

    def _choose_engine(
        self, algorithm: str, engine: str, rationale: list[str]
    ) -> str | None:
        if not engine_applies(algorithm):
            if engine != AUTO:
                rationale.append(
                    f"engine {engine!r} ignored: {algorithm!r} does not "
                    "tabulate through a slice engine"
                )
            return None
        if engine == AUTO:
            engine = "batched"
            rationale.append(
                f"engine auto -> {engine!r} (whole-row batches per outer arc)"
            )
        contract = cost_contract_for(f"engine:{engine}")
        if contract is not None:
            rationale.append(
                f"cost contract {contract.key}: degree {contract.degree}, "
                f"{contract.polynomial} (statically audited by "
                "repro.check, COST001)"
            )
        return engine

    def _choose_backend(
        self,
        algorithm: str,
        backend: str,
        n_ranks: int,
        rationale: list[str],
    ) -> str:
        if algorithm not in PARALLEL_ALGORITHMS:
            return "self"
        if backend != AUTO:
            rationale.append(f"backend {backend!r} pinned by caller")
            return backend
        if n_ranks == 1:
            return "self"
        if algorithm == "managerworker":
            rationale.append(
                "backend auto -> 'thread' (the manager polls per-worker "
                "point-to-point queues, an in-process protocol)"
            )
            return "thread"
        if self.hints.trace:
            rationale.append(
                "backend auto -> 'thread' (tracing requires ranks sharing "
                "an in-memory tracer)"
            )
            return "thread"
        if os.name == "posix":
            rationale.append(
                "backend auto -> 'process' (true parallelism: one OS "
                "process per rank)"
            )
            return "process"
        rationale.append("backend auto -> 'thread' (no POSIX fork here)")
        return "thread"

    def _choose_sync_mode(
        self,
        s1: Structure,
        n_ranks: int,
        price: Pricer,
        cluster_source: str,
        rationale: list[str],
    ) -> str:
        """Price the row-barrier and dataflow schedules for this input.

        Both prices come from the simulator's model over the same
        latency/bandwidth spec (see :meth:`_resolve_cluster`).  The row
        barrier pays ``sync_overhead`` once per outer arc and finishes
        every row at its slowest rank; the dataflow schedule pays only
        point-to-point transfers of the cells the consumers actually read
        and waits only for the slowest rank's total.
        """
        if n_ranks <= 1:
            rationale.append(
                "sync auto -> 'row' (single rank: stage one has no remote "
                "cells to synchronize)"
            )
            return "row"
        mode, _ = self._schedule(price, n_ranks, AUTO)
        row = price(n_ranks, "row")
        dataflow = price(n_ranks, "dataflow")
        rationale.append(
            f"sync auto -> {mode!r}: modeled stage one — row barrier "
            f"{row.stage_one_seconds:.3g} s ({row.comm_seconds:.3g} s in "
            f"{s1.n_arcs} Allreduce) vs dataflow "
            f"{dataflow.stage_one_seconds:.3g} s ({dataflow.comm_seconds:.3g} "
            f"s dependency-driven coalesced publication); priced with "
            f"{cluster_source}"
        )
        return mode

    def _note_memory(
        self,
        s1: Structure,
        s2: Structure,
        n_ranks: int,
        backend: str,
        rationale: list[str],
    ) -> None:
        replicas = n_ranks if backend != "self" else 1
        footprint = max(s1.length, 1) * max(s2.length, 1) * 8 * replicas
        note = (
            f"memo footprint ~{footprint / 1e6:.2g} MB "
            f"({replicas} replica(s) of int64 M)"
        )
        budget = self.hints.memory_bytes
        if budget is not None and footprint > budget:
            note += f" EXCEEDS the {budget / 1e6:.2g} MB budget"
        rationale.append(note)

    # ------------------------------------------------------------------
    def plan_batch(
        self,
        query: Structure,
        targets: Mapping[str, Structure],
        *,
        algorithm: str = AUTO,
        engine: str = AUTO,
        n_workers: int = 1,
    ) -> Plan:
        """Resolve a plan for a query-vs-collection database search.

        Pairs are independent, so the outer loop parallelizes across
        worker processes and each per-pair run is a sequential algorithm
        (:data:`~repro.runtime.registry.BATCH_ALGORITHMS`).
        """
        algorithm = validate_choice(
            "batch algorithm", algorithm, allow_auto=True,
            choices=BATCH_ALGORITHMS,
        )
        engine = validate_choice("engine", engine, allow_auto=True)
        wm, _ = self._work_model(self._calibration())
        total = sum(
            wm.total_sequential_seconds(query, target)
            for target in targets.values()
        )
        rationale = [
            f"{len(targets)} independent pairs, modeled total "
            f"{total:.3g} s — parallelism goes *across* pairs",
        ]
        if algorithm == AUTO:
            algorithm = "srna2"
            rationale.append(
                "algorithm auto -> 'srna2' (fastest sequential per-pair run)"
            )
        else:
            rationale.append(f"algorithm {algorithm!r} requested by caller")
        engine = self._choose_engine(algorithm, engine, rationale)
        workers = max(int(n_workers), 1)
        if workers > 1:
            rationale.append(
                f"{workers} worker processes (fork pool; near-linear for "
                "non-trivial targets)"
            )
        return Plan(
            algorithm=algorithm,
            engine=engine,
            backend="process" if workers > 1 else "self",
            n_ranks=workers,
            workload="search",
            estimated_sequential_seconds=total,
            estimated_seconds=total / workers,
            rationale=tuple(rationale),
        )
