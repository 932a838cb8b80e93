"""End-to-end benchmark of the ``repro`` solver over four workloads.

    python3 benchmarks/suite/run.py --workload rrna-pair --seed 1 --seconds 15 --trace 0

Each workload runs in fresh subprocesses (so ``import repro``, memory
high-water marks and caches never carry over from another workload):
``SETUP_RUNS - 1`` set-up-only processes, then one that also measures.
Every process gets ``REPRO_CALIBRATION`` pointed at a file that does not
exist, so a developer's ``CALIBRATION.json`` cannot change the plans.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
per-layer pass as well, prints the per-layer metrics and a self-time
table, and writes a Chrome trace into ``--trace-dir``.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}

Without ``--workload`` all four run in turn.  The exit status is non-zero
when any score is wrong or a run fails.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SUITE))

from catalog import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: Set-up repetitions per workload; ``setup_s`` is their median.
SETUP_RUNS = 3
#: Wall-clock cap for one workload, every subprocess included.
WORKLOAD_DEADLINE_S = 170.0


# ----------------------------------------------------------------------
# Child side: one process, one workload
# ----------------------------------------------------------------------
def environment() -> dict[str, object]:
    """The interpreter, library and machine the numbers were taken on."""
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """High-water RSS of this process or any child it waited for (Linux: KiB)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def child_main(args: argparse.Namespace) -> int:
    """Set up one workload; unless ``--role setup``, measure and check it."""
    import workloads

    case = workloads.build(args.workload, args.seed, quick=args.quick)
    warm = case.call()
    setup_s = time.perf_counter() - args.spawned_at
    result: dict[str, object] = {"setup_s": setup_s}
    if args.role == "measure":
        loop = workloads.run_loop(case, args.seconds)
        rss = peak_rss_mb()
        expected = workloads.expected_scores(case)
        warm_ok = all(expected[k] == v for k, v in warm.items())
        attempted = loop.attempted + 1
        failed = workloads.count_failures(loop, expected) + (0 if warm_ok else 1)
        plan = case.plan()
        solve_s = statistics.median(loop.seconds or [float("nan")])
        metrics: dict[str, float] = {
            "solve_s": solve_s,
            "pairs_per_s": case.pairs_per_call / solve_s,
            "peak_rss_mb": rss,
        }
        layer_metrics: dict[str, float] = {}
        if args.trace:
            import layers

            spans = layers.Spans(args.workload)
            layer_metrics, tally = layers.measure_layers(
                case, loop.seconds, expected, spans, quick=args.quick
            )
            attempted += tally.attempted
            failed += tally.failed
            trace_dir = Path(args.trace_dir)
            trace_dir.mkdir(parents=True, exist_ok=True)
            trace_path = trace_dir / f"trace-{args.workload}-seed{args.seed}.json"
            spans.write(str(trace_path))
            print_self_times(args.workload, spans.self_times(), trace_path)
        result.update(
            workload=args.workload,
            seed=args.seed,
            rank_budget=workloads.BUDGET,
            inputs_sha256=case.digest(),
            plan=plan.to_dict(),
            environment=environment(),
            calls=len(loop.seconds),
            attempted=attempted,
            failed=failed,
            errors=loop.errors[:5],
            metrics=metrics,
            layer_metrics=layer_metrics,
        )
    Path(args.result_file).write_text(json.dumps(result))
    return 0


def print_self_times(
    workload: str, table: dict[str, tuple[int, float, float]], path: Path
) -> None:
    print(f"# per-layer self time, {workload} (trace: {path})")
    print(f"  {'layer':<12}{'spans':>8}{'total s':>12}{'self s':>12}")
    for layer, (count, total, own) in sorted(
        table.items(), key=lambda item: -item[1][2]
    ):
        print(f"  {layer:<12}{count:>8}{total:>12.4f}{own:>12.4f}")
    sys.stdout.flush()


# ----------------------------------------------------------------------
# Parent side: orchestrate subprocesses, aggregate, print
# ----------------------------------------------------------------------
def spawn(
    args: argparse.Namespace, role: str, workdir: Path, index: int, deadline: float
) -> dict:
    """Run one child process to completion (or kill its whole group)."""
    result_file = workdir / f"{role}-{index}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_CALIBRATION"] = str(workdir / "absent-calibration.json")
    env["TMPDIR"] = str(workdir)
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--trace-dir", str(args.trace_dir),
        "--role", role, "--result-file", str(result_file),
    ] + (["--quick"] if args.quick else [])
    cmd += ["--spawned-at", repr(time.perf_counter())]
    proc = subprocess.Popen(cmd, env=env, cwd=str(ROOT), start_new_session=True)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError(
            f"{args.workload} {role} run exceeded its time limit"
        ) from None
    finally:
        if proc.poll() is None:  # overran or interrupted: stop the whole group
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise RuntimeError(f"{args.workload} {role} run exited with status {code}")
    return json.loads(result_file.read_text())


def run_workload(args: argparse.Namespace, scratch: Path) -> dict:
    """Set-up repeats plus the measuring run of one workload; the summary."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    setups = []
    if not args.trace:
        for index in range(SETUP_RUNS - 1):
            setups.append(spawn(args, "setup", workdir, index, deadline)["setup_s"])
    record = spawn(args, "measure", workdir, 0, deadline)
    setups.append(record["setup_s"])
    if args.trace:
        metrics = record["layer_metrics"]
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        metrics = dict(record["metrics"], setup_s=statistics.median(setups))
        units = {name: spec[0] for name, spec in END_TO_END.items()}
    record["setup_samples_s"] = setups
    record["reported"] = {
        name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
    }
    return record


def print_record(record: dict) -> None:
    plan = record["plan"]
    sync = f" sync={plan['sync_mode']}" if plan["algorithm"] == "prna" else ""
    print(
        f"# {record['workload']} seed={record['seed']} "
        f"budget={record['rank_budget']} calls={record['calls']} "
        f"plan={plan['algorithm']} backend={plan['backend']} "
        f"ranks={plan['n_ranks']}{sync} "
        f"failed={record['failed']}/{record['attempted']}"
    )
    for name, entry in record["reported"].items():
        print(f"  {name:<28}{entry['value']:>16.6g} {entry['unit']}")
    for error in record["errors"]:
        print(f"  error: {error}")
    sys.stdout.flush()


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of repro.solve over four workloads."
    )
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument(
        "--seconds", type=float, default=15.0,
        help="timed closed-loop seconds per workload (default 15)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: also run the traced per-layer pass and report its metrics",
    )
    parser.add_argument(
        "--trace-dir", default=str(SUITE / "out"),
        help="where --trace 1 writes Chrome trace JSON (default: out/ here)",
    )
    parser.add_argument("--out", help="also write the full records as JSON here")
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny inputs for the self-test; never for performance claims",
    )
    # Internal: how the parent addresses its children.
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--result-file", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.role is not None:
        return child_main(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    if names[0] not in WORKLOADS:
        print(f"error: unknown workload {names[0]!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = SUITE / "out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    records = []
    try:
        for name in names:
            args.workload = name
            record = run_workload(args, scratch)
            print_record(record)
            records.append(record)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=2) + "\n")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["reported"]
    else:
        metrics = {
            f"{r['workload']}/{name}": entry
            for r in records for name, entry in r["reported"].items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
