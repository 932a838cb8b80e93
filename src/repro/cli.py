"""``repro-rna`` — command-line interface to the library.

Subcommands:

* ``compare A B`` — MCOS of two structure files (or dot-bracket strings);
* ``generate`` — emit a synthetic structure in a chosen format;
* ``describe FILE`` — structure statistics;
* ``simulate`` — simulated PRNA speedup for a structure/cluster;
* ``trace-report FILE`` — per-rank compute/comm-wait/idle summary of a
  Chrome trace produced by ``--trace``;
* ``check [PATHS]`` — SPMD static analysis (per-module rules plus the
  protocol and dataflow verifiers, SARIF and baseline modes; see
  ``docs/static-analysis.md``), same options and engine as
  ``python -m repro.check``;
* ``experiments ...`` — forwards to ``python -m repro.experiments``.

``compare`` and ``simulate`` accept ``--trace PATH`` (write a Perfetto-
loadable Chrome trace-event file) and ``--metrics PATH`` (append one JSONL
run record with a run id and environment snapshot).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro._version import __version__
from repro.errors import ReproError
from repro.runtime.registry import (
    ALGORITHMS,
    AUTO,
    BATCH_ALGORITHMS,
    ENGINE_NAMES,
    PARTITIONER_NAMES,
    SYNC_MODES,
)
from repro.structure.arcs import Structure
from repro.structure.dotbracket import from_dotbracket, to_dotbracket
from repro.structure.generators import (
    comb_structure,
    contrived_worst_case,
    random_structure,
    rna_like_structure,
    sequential_arcs,
)
from repro.structure.io import load_structure, write_bpseq, write_ct, write_vienna
from repro.structure.stats import describe

__all__ = ["main"]


def _load(arg: str) -> Structure:
    """A path to a structure file, or an inline dot-bracket string."""
    if os.path.exists(arg):
        return load_structure(arg)
    if set(arg) <= set("().-_:,") and arg:
        return from_dotbracket(arg)
    raise ReproError(
        f"{arg!r} is neither an existing file nor a dot-bracket string"
    )


def _write_trace(tracer, path: str) -> None:
    try:
        tracer.write(path)
    except OSError as exc:
        raise ReproError(f"cannot write trace to {path}: {exc}") from exc
    print(f"trace written to {path} (open in ui.perfetto.dev, or run "
          f"'repro-rna trace-report {path}')")


def _append_metrics(path: str, kind: str, parameters: dict, metrics: dict) -> None:
    from repro.obs.runrecord import RunRecord, append_run_record, new_run_id

    run_id = new_run_id()
    try:
        append_run_record(
            path,
            RunRecord(run_id=run_id, kind=kind, parameters=parameters,
                      metrics=metrics),
        )
    except OSError as exc:
        raise ReproError(f"cannot write run record to {path}: {exc}") from exc
    print(f"run record appended to {path} (run id {run_id})")


def _cmd_compare(args: argparse.Namespace) -> int:
    s1 = _load(args.first)
    s2 = _load(args.second)
    if args.report:
        from repro.analysis.comparison import render_comparison

        print(render_comparison(s1, s2))
        return 0
    from repro.runtime.solver import solve

    tracer = None
    inst = None
    if args.trace or args.metrics:
        from repro.runtime.context import ExecutionContext

        context = ExecutionContext(trace=bool(args.trace))
        tracer = context.tracer
        inst = context.instrumentation()
    result = solve(
        s1, s2, algorithm=args.algorithm, engine=args.engine,
        sync_mode=args.sync_mode,
        with_backtrace=args.backtrace, instrumentation=inst,
        record_kind="compare",
    )
    print(f"MCOS score: {result.score}")
    print(f"algorithm:  {result.algorithm}")
    print(f"S1: {s1.length} nt, {s1.n_arcs} arcs")
    print(f"S2: {s2.length} nt, {s2.n_arcs} arcs")
    if args.backtrace and result.matched_pairs is not None:
        print("matched arc pairs (S1 <-> S2):")
        ordered = sorted(result.matched_pairs, key=lambda p: p.arc1.left)
        for pair in ordered:
            print(f"  {tuple(pair.arc1)} <-> {tuple(pair.arc2)}")
    if tracer is not None:
        _write_trace(tracer, args.trace)
    if args.metrics:
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        inst.to_metrics(registry)
        _append_metrics(
            args.metrics,
            "compare",
            {"algorithm": result.algorithm, "s1_arcs": s1.n_arcs,
             "s2_arcs": s2.n_arcs, "score": result.score,
             "plan": result.plan.to_dict()},
            registry.as_dict(),
        )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "worst-case":
        structure = contrived_worst_case(args.length)
    elif args.kind == "sequential":
        structure = sequential_arcs(args.arcs or args.length // 2)
    elif args.kind == "comb":
        structure = comb_structure(args.teeth, args.depth)
    elif args.kind == "random":
        structure = random_structure(
            args.length, args.arcs or args.length // 4, seed=args.seed
        )
    else:  # rna-like
        structure = rna_like_structure(
            args.length, args.arcs or args.length // 6, seed=args.seed
        )
    if args.output:
        ext = os.path.splitext(args.output)[1].lower()
        if ext == ".bpseq":
            write_bpseq(structure, args.output)
        elif ext == ".ct":
            write_ct(structure, args.output)
        else:
            write_vienna(structure, args.output)
        print(f"wrote {structure.length} nt / {structure.n_arcs} arcs "
              f"to {args.output}")
    else:
        print(to_dotbracket(structure))
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    structure = _load(args.file)
    stats = describe(structure)
    print(f"length:            {stats.length}")
    print(f"arcs:              {stats.n_arcs}")
    print(f"unpaired:          {stats.n_unpaired}")
    print(f"pairing fraction:  {stats.pairing_fraction:.3f}")
    print(f"max nesting depth: {stats.max_depth}")
    print(f"helices:           {stats.n_helices}")
    print(f"mean helix length: {stats.mean_helix_length:.2f}")
    print(f"max arc span:      {stats.max_span}")
    if args.draw:
        from repro.structure.draw import draw_arcs

        print()
        print(draw_arcs(structure))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.runtime.solver import Solver

    query = _load(args.query)
    targets = {}
    for path in args.targets:
        name = os.path.splitext(os.path.basename(path))[0]
        targets[name] = _load(path)
    context = None
    if args.trace:
        from repro.runtime.context import ExecutionContext

        context = ExecutionContext(trace=True)
    hits = Solver(context=context).solve_batch(
        query, targets,
        algorithm=args.algorithm, engine=args.engine,
        n_workers=args.workers,
    )
    print(f"query: {query.length} nt, {query.n_arcs} arcs")
    print(f"{'rank':>4} {'target':<24} {'arcs':>6} {'score':>6} {'coverage':>9}")
    for position, hit in enumerate(hits, start=1):
        print(
            f"{position:>4} {hit.name:<24} {hit.target_arcs:>6} "
            f"{hit.score:>6} {hit.query_coverage:>8.1%}"
        )
    if context is not None:
        _write_trace(context.tracer, args.trace)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.parallel.simulator import PRNASimulator

    structure = _load(args.file) if args.file else contrived_worst_case(
        args.length
    )
    simulator = PRNASimulator(partitioner=args.partitioner)
    ranks = [int(p) for p in args.procs.split(",")]
    print(f"simulated PRNA speedup ({structure.length} nt, "
          f"{structure.n_arcs} arcs):")
    reports = simulator.sweep(structure, structure, ranks)
    for report in reports:
        print(
            f"  P={report.n_ranks:>3}: speedup {report.speedup:6.2f}x  "
            f"efficiency {report.efficiency:5.1%}  "
            f"(comm {report.comm_seconds:.2f}s of "
            f"{report.total_seconds:.2f}s)"
        )
    executed_stats = None
    if args.trace:
        from repro.parallel.prna import prna
        from repro.runtime.context import ExecutionContext

        tracer = ExecutionContext(trace=True).tracer
        executed = prna(
            structure, structure, args.trace_ranks,
            backend="thread", partitioner=args.partitioner,
            tracer=tracer, collect_stats=True,
        )
        executed_stats = executed.comm_stats
        print(
            f"executed a traced {args.trace_ranks}-rank PRNA run "
            f"(score {executed.score}, "
            f"{(executed_stats or {}).get('allreduces', 0)} Allreduces)"
        )
        _write_trace(tracer, args.trace)
    if args.metrics:
        _append_metrics(
            args.metrics,
            "simulate",
            {
                "length": structure.length,
                "n_arcs": structure.n_arcs,
                "partitioner": args.partitioner,
                "procs": ranks,
                "trace_ranks": args.trace_ranks if args.trace else None,
            },
            {
                "speedups": {
                    str(report.n_ranks): report.speedup for report in reports
                },
                "comm_stats": executed_stats,
            },
        )
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.obs.report import summarize_trace

    try:
        report = summarize_trace(args.file)
    except (OSError, ValueError) as exc:
        raise ReproError(str(exc)) from exc
    print(report.render())
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-rna",
        description="Common RNA secondary structure comparison "
        "(IPDPSW 2012 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="MCOS of two structures")
    compare.add_argument("first", help="file or dot-bracket string")
    compare.add_argument("second", help="file or dot-bracket string")
    compare.add_argument(
        "--algorithm", default="srna2",
        choices=(*ALGORITHMS, AUTO),
        help="algorithm, or 'auto' to let the planner choose",
    )
    compare.add_argument(
        "--engine", default=AUTO,
        choices=(*ENGINE_NAMES, AUTO),
        help="slice engine, or 'auto' (default) to let the planner choose",
    )
    compare.add_argument(
        "--sync-mode", default=AUTO, dest="sync_mode",
        choices=(*SYNC_MODES, AUTO),
        help="PRNA stage-one schedule ('row' barrier, 'dataflow' "
        "point-to-point, ...), or 'auto' (default) to let the planner "
        "price both against the calibrated cost model",
    )
    compare.add_argument(
        "--backtrace", action="store_true",
        help="also print the matched arc pairs",
    )
    compare.add_argument(
        "--report", action="store_true",
        help="full text report (stats, certificate, alignment, diagrams)",
    )
    compare.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a Chrome trace-event file of the run's stage spans",
    )
    compare.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="append a JSONL run record (counters, stage times) to PATH",
    )
    compare.set_defaults(func=_cmd_compare)

    generate = sub.add_parser("generate", help="emit a synthetic structure")
    generate.add_argument(
        "kind",
        choices=("worst-case", "sequential", "comb", "random", "rna-like"),
    )
    generate.add_argument("--length", type=int, default=100)
    generate.add_argument("--arcs", type=int, default=None)
    generate.add_argument("--teeth", type=int, default=4)
    generate.add_argument("--depth", type=int, default=5)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", "-o", default=None)
    generate.set_defaults(func=_cmd_generate)

    desc = sub.add_parser("describe", help="structure statistics")
    desc.add_argument("file")
    desc.add_argument(
        "--draw", action="store_true", help="also print an ASCII arc diagram"
    )
    desc.set_defaults(func=_cmd_describe)

    search_cmd = sub.add_parser(
        "search", help="rank target structures against a query"
    )
    search_cmd.add_argument("query", help="file or dot-bracket string")
    search_cmd.add_argument("targets", nargs="+", help="target files")
    search_cmd.add_argument("--workers", type=int, default=1)
    search_cmd.add_argument(
        "--algorithm", default=AUTO,
        choices=(*BATCH_ALGORITHMS, AUTO),
        help="per-pair scoring algorithm, or 'auto' (default)",
    )
    search_cmd.add_argument(
        "--engine", default=AUTO,
        choices=(*ENGINE_NAMES, AUTO),
        help="slice engine for per-pair runs, or 'auto' (default)",
    )
    search_cmd.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a Chrome trace-event file of the per-target scoring",
    )
    search_cmd.set_defaults(func=_cmd_search)

    simulate = sub.add_parser(
        "simulate", help="simulated PRNA speedup on a modelled cluster"
    )
    simulate.add_argument("--file", default=None)
    simulate.add_argument("--length", type=int, default=1600)
    simulate.add_argument("--procs", default="1,2,4,8,16,32,64")
    simulate.add_argument(
        "--partitioner", default="greedy", choices=PARTITIONER_NAMES,
    )
    simulate.add_argument(
        "--trace", metavar="PATH", default=None,
        help=(
            "also execute a traced PRNA run on the thread backend and "
            "write its per-rank timeline as a Chrome trace-event file"
        ),
    )
    simulate.add_argument(
        "--trace-ranks", type=int, default=4,
        help="world size of the executed traced run (default 4)",
    )
    simulate.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="append a JSONL run record (speedups, comm stats) to PATH",
    )
    simulate.set_defaults(func=_cmd_simulate)

    trace_report = sub.add_parser(
        "trace-report",
        help="per-rank compute/comm-wait/idle summary of a trace file",
    )
    trace_report.add_argument("file", help="Chrome trace-event JSON path")
    trace_report.set_defaults(func=_cmd_trace_report)

    from repro.check.static import DESCRIPTION, add_arguments, run_args

    check = sub.add_parser(
        "check",
        help="SPMD static analysis of Python sources (per-module rules "
        "plus the protocol and dataflow verifiers)",
        description=DESCRIPTION,
    )
    add_arguments(check).set_defaults(func=run_args)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
