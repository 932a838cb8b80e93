"""Analyzer wall-time benchmark: cold vs warm-cache verifier runs.

Writes ``BENCH_check.json`` at the repository root (override with
``--out``).  The headline numbers are the **cold** wall time of a full
``repro.check`` pass over ``src/repro`` and the
**warm** wall time of an immediate re-run against the content-hash cache
on the unchanged tree.  The acceptance bar (and the regression this file
makes visible) is ``warm < 0.05 * cold``: the warm path must serve the
whole result — per-module, protocol, and dataflow findings — from the
cache without parsing a single module.

Run directly (``python benchmarks/bench_check.py``) or via
``make check-bench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.check.cache import CheckCache  # noqa: E402
from repro.check.static import analyze_project  # noqa: E402

#: Warm-over-cold ratio the incremental cache must stay under.
WARM_RATIO_BAR = 0.05


def _timed_run(paths: list[str], cache: CheckCache | None):
    start = time.perf_counter()
    findings, n_files = analyze_project(paths, cache=cache)
    elapsed = time.perf_counter() - start
    return elapsed, findings, n_files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_check.json"),
        help="output JSON path (default: BENCH_check.json at repo root)",
    )
    parser.add_argument(
        "--paths", nargs="*", default=[str(REPO_ROOT / "src" / "repro")],
        help="trees to analyze (default: src/repro)",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        cache = CheckCache(os.path.join(tmp, "check-cache.json"))
        cold_s, findings, n_files = _timed_run(args.paths, cache)
        warm_cache = CheckCache(cache.cache_path)  # re-read from disk
        warm_s, warm_findings, _ = _timed_run(args.paths, warm_cache)

    consistent = [f.as_dict() for f in findings] == [
        f.as_dict() for f in warm_findings
    ]
    interproc_findings = [
        f.as_dict()
        for f in findings
        if f.rule.startswith(
            ("SPMD1", "SPMD2", "SCHED", "BASE", "DTYPE", "SHAPE", "COST")
        )
    ]
    payload = {
        "benchmark": "repro.check analyzer wall time",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "checked_files": n_files,
        "cold_seconds": round(cold_s, 4),
        "warm_seconds": round(warm_s, 4),
        "warm_over_cold": round(warm_s / cold_s, 4) if cold_s else None,
        "warm_cache_ok": consistent,
        "findings": len(findings),
        "interprocedural_findings": interproc_findings,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(
        f"bench_check: cold {cold_s:.3f}s, "
        f"warm {warm_s:.3f}s (ratio {payload['warm_over_cold']}), "
        f"{n_files} files, {len(findings)} finding(s) -> {args.out}"
    )
    if not consistent:
        print("bench_check: WARM CACHE RETURNED DIFFERENT FINDINGS",
              file=sys.stderr)
        return 1
    if cold_s > 0 and warm_s >= WARM_RATIO_BAR * cold_s:
        print(
            f"bench_check: warm run {warm_s:.3f}s is not "
            f"<{WARM_RATIO_BAR:.0%} of cold {cold_s:.3f}s — incremental "
            f"cache regression",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
