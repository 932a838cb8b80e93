"""``python -m repro.check.demo`` — sanitized-run transparency smoke test.

For each PRNA stage-one schedule (the ``row`` barrier and the ``dataflow``
executor, the two the planner chooses between), runs PRNA twice on the
process backend over two ranks — plain and under the runtime sanitizer —
asserts the results are bit-identical, and prints the sanitizer's
measured overhead from ``CommStats``.  Exits 0 on success, 1 on any
divergence; wired into ``make verify``.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.parallel.prna import prna
from repro.runtime.registry import SYNC_MODES
from repro.structure.generators import contrived_worst_case


def _compare(s1, s2, sync_mode: str) -> bool:
    """Plain vs sanitized run under *sync_mode*; prints one verdict line."""
    plain = prna(
        s1, s2, 2, backend="process", sync_mode=sync_mode,
        collect_stats=True,
    )
    sanitized = prna(
        s1, s2, 2, backend="process", sync_mode=sync_mode, sanitize=True,
        collect_stats=True,
    )
    if sanitized.score != plain.score:
        print(
            f"FAIL ({sync_mode}): sanitized score {sanitized.score} != "
            f"plain {plain.score}"
        )
        return False
    if not np.array_equal(plain.memo.values, sanitized.memo.values):
        print(f"FAIL ({sync_mode}): sanitized memo table diverged from plain run")
        return False
    stats = sanitized.comm_stats or {}
    checks = stats.get("sanitizer_checks", 0)
    millis = stats.get("sanitizer_ns", 0) / 1e6
    if checks <= 0:
        print(f"FAIL ({sync_mode}): sanitizer performed no checks")
        return False
    print(
        f"sanitize-demo ({sync_mode}): OK — score {sanitized.score}, "
        f"bit-identical memo table, {checks} sanitizer checks "
        f"({millis:.1f} ms overhead on rank 0)"
    )
    return True


def main() -> int:
    """Run the plain-vs-sanitized comparison per schedule; an exit code."""
    s1 = contrived_worst_case(80)
    s2 = contrived_worst_case(80)
    ok = [_compare(s1, s2, sync_mode) for sync_mode in SYNC_MODES]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
