"""Per-layer metrics for the traced run, and the span recorder behind them.

The layers are measured from outside: every number comes from timing a
call into one module's public functions (``repro.structure``,
``repro.runtime``, ``repro.scheduling``, ``repro.core``,
``repro.parallel``, ``repro.mpi``, ``repro.batch``), wrapped in a span of
the benchmark's own in-memory recorder.  Process ranks return
``perf_counter`` stamps from their closures; the monotonic clock is
system-wide on Linux, so those stamps land on the parent's timeline.

A layer that a workload never runs reports 0 (``search`` and
``small-pairs`` plan plain SRNA2, so they have no ``parallel``/``mpi``
spans; only ``search`` has a ``batch`` layer).
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Iterator

import numpy as np

from repro import from_dotbracket, solve
from repro.batch import run_search
from repro.core.instrument import Instrumentation
from repro.core.slices import tabulate_slices_batched
from repro.core.srna2 import srna2
from repro.parallel.prna import prna_rank
from repro.runtime.context import ExecutionContext
from repro.runtime.plan import Planner
from repro.scheduling.partition import PARTITIONERS
from repro.scheduling.workload import column_weights

from catalog import PER_LAYER
from workloads import BUDGET, Case, inside_total, query_ranks_first


# ----------------------------------------------------------------------
# Span recorder
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed interval on one track (0: the benchmark, r + 1: rank r)."""

    sid: int
    layer: str
    name: str
    track: int
    start: float
    end: float = 0.0
    parent: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Spans:
    """In-memory span recorder for one workload run."""

    workload: str
    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[Span]:
        """Time the block as a child of the innermost open span."""
        parent = self._open[-1] if self._open else None
        rec = Span(len(self.spans), layer, name, 0, time.perf_counter(), parent=parent)
        self.spans.append(rec)
        self._open.append(rec.sid)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def add(
        self, layer: str, name: str, start: float, end: float, *,
        track: int, parent: int | None,
    ) -> int:
        """Record an interval measured elsewhere (a rank); returns its id."""
        rec = Span(len(self.spans), layer, name, track, start, end, parent)
        self.spans.append(rec)
        return rec.sid

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per layer: (spans, total seconds, self seconds).

        Total sums the layer's outermost spans (a rank span nested in its
        launch span is not counted twice).  Self time is a span's duration
        minus the union of its children's intervals clipped to it; rank
        children overlap each other, so the union, not the sum, is used.
        """
        children: dict[int, list[Span]] = {}
        for rec in self.spans:
            if rec.parent is not None:
                children.setdefault(rec.parent, []).append(rec)
        table: dict[str, tuple[int, float, float]] = {}
        for rec in self.spans:
            covered, reach = 0.0, rec.start
            for kid in sorted(children.get(rec.sid, ()), key=lambda s: s.start):
                lo, hi = max(kid.start, reach), min(kid.end, rec.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            outermost = rec.parent is None or self.spans[rec.parent].layer != rec.layer
            count, total, own = table.get(rec.layer, (0, 0.0, 0.0))
            table[rec.layer] = (
                count + 1,
                total + (rec.seconds if outermost else 0.0),
                own + rec.seconds - covered,
            )
        return table

    def chrome(self) -> dict[str, Any]:
        """Chrome trace-event JSON (load in chrome://tracing or Perfetto)."""
        origin = min((s.start for s in self.spans), default=0.0)
        events: list[dict[str, Any]] = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": self.workload}},
        ]
        for track in sorted({s.track for s in self.spans}):
            events.append(
                {"ph": "M", "name": "thread_name", "pid": 1, "tid": track,
                 "args": {"name": "benchmark" if track == 0 else f"rank {track - 1}"}}
            )
        for s in self.spans:
            events.append(
                {"ph": "X", "name": s.name, "cat": s.layer, "pid": 1,
                 "tid": s.track, "ts": (s.start - origin) * 1e6,
                 "dur": s.seconds * 1e6,
                 "args": {"id": s.sid, "parent": s.parent}}
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome(), fh)


class RankStamps:
    """Stage stamps inside one rank, via ``Instrumentation(tracer=...)``.

    :meth:`repro.core.instrument.Instrumentation.stage` calls
    ``tracer.span(name, rank=..., category=...)``; this records the
    interval so the rank can return it to the parent.
    """

    def __init__(self) -> None:
        self.stamps: list[tuple[str, float, float]] = []

    @contextmanager
    def span(self, name: str, rank: int = 0, category: str | None = None):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stamps.append((name, start, time.perf_counter()))


# ----------------------------------------------------------------------
# Layer measurements
# ----------------------------------------------------------------------
def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


@dataclass
class Tally:
    """Checks made by the traced pass (they feed ``attempted``/``failed``)."""

    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def measure_layers(
    case: Case,
    loop_seconds: list[float],
    expected: dict[int, int],
    spans: Spans,
    *,
    quick: bool = False,
) -> tuple[dict[str, float], Tally]:
    """Run every layer probe once for *case*; metrics plus the checks made.

    *loop_seconds* are the untraced per-call times of the same process;
    *expected* holds reference scores for every pair of the case.
    """
    m = {name: 0.0 for name in PER_LAYER}
    tally = Tally()
    solve_s = _median(loop_seconds)
    m["solve_s_p90"] = float(np.percentile(loop_seconds, 90))
    plan = case.plan()
    budget_s = 0.5 if quick else 6.0

    # Order matters: forked ranks inherit this process's allocator state,
    # and running the kernel here first makes later PRNA ranks faster.  So
    # everything that launches ranks runs before any in-process kernel
    # work, in the same state the untraced loop ran in.
    traced = []
    repeats = max(2, int(budget_s / max(solve_s, 1e-3)))
    for _ in range(repeats):
        with spans.span("e2e", case.name) as rec:
            scores = case.call()
        traced.append(rec.seconds)
        tally.check(
            query_ranks_first(case)
            and all(expected[k] == v for k, v in scores.items())
        )
    m["trace_overhead_s"] = _median(traced) - solve_s
    if plan.algorithm == "prna":
        _parallel_layer(case, spans, m, plan, expected, tally, solve_s, budget_s)
        _mpi_probe(case, spans, m, plan)
        m["runtime.return_s"] = solve_s - m["parallel.rank_wall_s_max"]

    _structure_layer(case, spans, m)
    _runtime_plan_layer(case, spans, m, solve_s)
    _scheduling_layer(case, spans, m)
    srna2_total = _kernel_layers(case, spans, m, expected, tally)
    m["runtime.plan_regret"] = solve_s / (
        srna2_total if case.name == "search" else m["srna2.solve_s"]
    )
    if case.name == "search":
        _batch_layer(case, spans, m, expected, tally, solve_s)
    return m, tally


def _at_least(items: list, n: int) -> list:
    """*items* repeated whole until there are at least *n*."""
    return items * -(-n // len(items))


def _structure_layer(case: Case, spans: Spans, m: dict[str, float]) -> None:
    took = []
    for text in _at_least(case.texts, 5):
        with spans.span("structure", "from_dotbracket") as rec:
            from_dotbracket(text)
        took.append(rec.seconds)
    m["structure.parse_s"] = _median(took)


def _runtime_plan_layer(
    case: Case, spans: Spans, m: dict[str, float], solve_s: float
) -> None:
    """``Planner.plan`` per pair; a search's calls plan with ``plan_batch``."""
    planner = Planner(case.hints)
    if case.name == "search":
        jobs = [case.plan] * 5
    else:
        jobs = [partial(planner.plan, s1, s2) for s1, s2 in _at_least(case.pairs, 5)]
    took, estimates = [], []
    for job in jobs:
        with spans.span("runtime", "plan") as rec:
            plan = job()
        took.append(rec.seconds)
        estimates.append(plan.estimated_seconds)
    m["runtime.plan_s"] = _median(took)
    m["runtime.model_error"] = abs(_median(estimates) / solve_s - 1.0)


def _scheduling_layer(case: Case, spans: Spans, m: dict[str, float]) -> None:
    took, imbalance = [], []
    for s1, s2 in case.pairs:
        weights = column_weights(s1, s2)
        with spans.span("scheduling", "greedy_partition") as rec:
            part = PARTITIONERS["greedy"](weights, BUDGET)
        took.append(rec.seconds)
        owned = np.zeros(BUDGET, dtype=np.int64)
        np.add.at(owned, np.asarray(part.owner, dtype=np.int64),
                  inside_total(s1) * s2.inside_count.astype(np.int64))
        mean = owned.mean()
        imbalance.append(float(owned.max() / mean) if mean > 0 else 1.0)
    m["scheduling.partition_s"] = _median(took)
    m["scheduling.cells_imbalance"] = _median(imbalance)


def _kernel_layers(
    case: Case, spans: Spans, m: dict[str, float],
    expected: dict[int, int], tally: Tally,
) -> float:
    """srna2 per pair, the slice-kernel replay on its memo, and the facade gap.

    Returns the summed srna2 seconds over all pairs.
    """
    walls, pre, one, two, facade = [], [], [], [], []
    call_s: list[float] = []
    cells = gather = 0
    srna2(*case.pairs[0])  # untimed: the first in-process kernel run is cold
    for k, (s1, s2) in enumerate(case.pairs):
        inst = Instrumentation()
        with spans.span("srna2", "srna2") as rec:
            run = srna2(s1, s2, engine="batched", instrumentation=inst)
        walls.append(rec.seconds)
        pre.append(inst.stage_times.preprocessing)
        one.append(inst.stage_times.stage_one)
        two.append(inst.stage_times.stage_two)
        tally.check(run.score == expected[k])

        # Replay stage one arc by arc on the finished memo: each batch must
        # reproduce the memo row SRNA2 wrote.
        values = run.memo.values
        all_arcs2 = np.arange(s2.n_arcs, dtype=np.int64)
        row_cols = s2.lefts + 1
        widths = (s2.inner_ranges[:, 1] - s2.inner_ranges[:, 0]).astype(np.int64)
        gather_width = int((widths[widths > 0] + 1).sum())
        counter = Instrumentation()
        for a in range(s1.n_arcs):
            i1, j1 = int(s1.lefts[a]), int(s1.rights[a])
            r1 = (int(s1.inner_ranges[a, 0]), int(s1.inner_ranges[a, 1]))
            with spans.span("slices", "tabulate_slices_batched") as rec:
                out = tabulate_slices_batched(
                    values, s1, s2, i1 + 1, j1 - 1, all_arcs2,
                    r1=r1, instrumentation=counter,
                )
            call_s.append(rec.seconds)
            tally.check(bool(np.array_equal(out, values[i1 + 1, row_cols])))
            gather += (r1[1] - r1[0]) * gather_width * 8
        cells += counter.cells_tabulated
        del run, values  # free this memo before the facade run builds its own

        with spans.span("runtime", "solve[srna2]") as rec:
            result = solve(s1, s2, hints=case.hints, algorithm="srna2")
        facade.append(rec.seconds - walls[-1])
        tally.check(result.score == expected[k])

    m["srna2.solve_s"] = _median(walls)
    m["srna2.preprocessing_s"] = _median(pre)
    m["srna2.stage_one_s"] = _median(one)
    m["srna2.stage_two_s"] = _median(two)
    m["slices.cells"] = float(cells)
    m["slices.calls"] = float(len(call_s))
    m["slices.cells_per_s"] = cells / sum(call_s) if call_s else 0.0
    m["slices.call_us_p50"] = _median(call_s) * 1e6
    m["slices.gather_bytes"] = float(gather)
    m["runtime.facade_s"] = _median(facade)
    return float(sum(walls))


@dataclass
class RankReport:
    """What one PRNA rank sends back: its stamps, stage times and counters."""

    score: int
    start: float
    end: float
    stages: list[tuple[str, float, float]]
    comm: dict[str, int]

    def stage_s(self, name: str) -> float:
        return sum(hi - lo for stage, lo, hi in self.stages if stage == name)

    @property
    def wait_s(self) -> float:
        return self.comm["dependency_wait_ns"] / 1e9


def _parallel_layer(
    case: Case, spans: Spans, m: dict[str, float], plan,
    expected: dict[int, int], tally: Tally, solve_s: float, budget_s: float,
) -> None:
    s1, s2 = case.pairs[0]
    ctx = ExecutionContext(collect_stats=True)

    def rank_main(comm) -> RankReport:
        stamps = RankStamps()
        inst = Instrumentation(tracer=stamps, trace_rank=comm.rank)
        start = time.perf_counter()
        res = prna_rank(
            comm, s1, s2,
            partitioner=plan.partitioner, engine=plan.engine,
            sync_mode=plan.sync_mode, shared_memory=plan.shared_memory,
            instrumentation=inst,
        )
        end = time.perf_counter()
        return RankReport(
            res.score, start, end, stamps.stamps, dict(res.comm_stats or {})
        )

    runs: list[list[RankReport]] = []
    for _ in range(max(1, min(3, int(budget_s / solve_s)))):
        with spans.span("parallel", "launch[prna_rank]") as launch:
            reports = ctx.launch(rank_main, n_ranks=plan.n_ranks, backend=plan.backend)
        for rank, rep in enumerate(reports):
            rid = spans.add("parallel", f"rank {rank}", rep.start, rep.end,
                            track=rank + 1, parent=launch.sid)
            for name, lo, hi in rep.stages:
                spans.add("parallel", name, lo, hi, track=rank + 1, parent=rid)
        tally.check(reports[0].score == expected[0])
        runs.append(reports)

    def med(fn) -> float:
        return _median([max(fn(rep) for rep in reports) for reports in runs])

    m["parallel.rank_wall_s_max"] = med(lambda r: r.end - r.start)
    m["parallel.stage_one_s_max"] = med(lambda r: r.stage_s("stage_one"))
    m["parallel.dep_wait_s_max"] = med(lambda r: r.wait_s)
    m["parallel.compute_s_max"] = med(lambda r: r.stage_s("stage_one") - r.wait_s)
    m["parallel.dep_wait_share"] = med(
        lambda r: r.wait_s / max(r.stage_s("stage_one"), 1e-9)
    )
    m["parallel.stage_two_s"] = _median(
        [reports[0].stage_s("stage_two") for reports in runs]
    )

    comm = [rep.comm for rep in runs[0]]
    m["mpi.sync_points"] = float(
        max(c["allreduces"] + c["barriers"] + c["bcasts"] for c in comm)
    )
    for key in ("publishes", "awaits", "coalesced_cells", "publish_bytes",
                "allreduce_bytes"):
        m[f"mpi.{key}"] = float(sum(c[key] for c in comm))
    m["mpi.result_bytes"] = float(plan.n_ranks * s1.length * s2.length * 8)


def _probe_rank(comm, row_cells: int) -> dict[str, list[float]]:
    """Ping-pong microbenchmarks between ranks 0 and 1 (rank 0's timings)."""
    peer = 1 - comm.rank

    def pingpong(payload: Any, n: int) -> list[float]:
        took = []
        for _ in range(n):
            start = time.perf_counter()
            if comm.rank == 0:
                comm.send(payload, peer)
                comm.recv(peer)
            else:
                comm.recv(peer)
                comm.send(payload, peer)
            took.append(time.perf_counter() - start)
        return took

    rtt = pingpong(b"\0" * 8, 200)
    mib = pingpong(np.zeros(1 << 17, dtype=np.int64), 20)
    row = np.zeros(row_cells, dtype=np.int64)
    publish = []
    for k in range(100):
        start = time.perf_counter()
        if comm.rank == 0:
            comm.Publish(("ping", k), row, peer)
            comm.flush_publications(peer)
            comm.Await([("pong", k)], peer)
        else:
            comm.Await([("ping", k)], peer)
            comm.Publish(("pong", k), row, peer)
            comm.flush_publications(peer)
        publish.append(time.perf_counter() - start)
    return {"rtt": rtt, "mib": mib, "publish": publish}


def _mpi_probe(case: Case, spans: Spans, m: dict[str, float], plan) -> None:
    ctx = ExecutionContext()
    launches = []
    for _ in range(5):
        with spans.span("mpi", "launch[no-op]") as rec:
            ctx.launch(lambda comm: None, n_ranks=2, backend=plan.backend)
        launches.append(rec.seconds)
    row_cells = case.pairs[0][1].length
    with spans.span("mpi", "pingpong"):
        probe = ctx.launch(
            lambda comm: _probe_rank(comm, row_cells), n_ranks=2, backend=plan.backend
        )[0]
    m["mpi.launch_s"] = _median(launches)
    m["mpi.rtt_us"] = _median(probe["rtt"]) * 1e6
    m["mpi.pipe_mb_per_s"] = 2 * (1 << 20) / _median(probe["mib"]) / 1e6
    m["mpi.publish_await_us"] = _median(probe["publish"]) * 1e6


def _batch_layer(
    case: Case, spans: Spans, m: dict[str, float],
    expected: dict[int, int], tally: Tally, solve_s: float,
) -> None:
    query = case.pairs[0][0]
    items = [(str(k), target) for k, (_, target) in enumerate(case.pairs)]
    with spans.span("batch", "run_search[1 worker]") as rec:
        hits = run_search(query, items, n_workers=1)
    tally.check(all(expected[int(hit.name)] == hit.score for hit in hits))
    serial = len(items) / rec.seconds
    pooled = len(items) / solve_s
    m["batch.serial_pairs_per_s"] = serial
    m["batch.pool_efficiency"] = pooled / (serial * BUDGET)
