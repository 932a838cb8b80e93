"""``python -m repro.runtime.demo`` — planner transparency smoke test.

Plans the contrived worst case at ``n=400`` (where the cost model must
pick a parallel PRNA schedule with the batched engine) and a small input
(where plain sequential SRNA2 must win), prints both ``plan.explain()``
rationales, and asserts the ``auto`` choices.  The worst-case plan's
per-stage prediction is printed and re-priced through the simulator's
model for the plan's own configuration: a planner estimate that differs
means a second pricing path has crept in.  Exits 0 on success, 1 on any
mis-planned case; wired into ``make verify``.
"""

from __future__ import annotations

import sys

from repro.parallel.simulator import PRNASimulator
from repro.runtime.plan import Planner, ResourceHints
from repro.structure.generators import contrived_worst_case


def main() -> int:
    """Plan the worst-case and a small pair; returns an exit code."""
    planner = Planner(ResourceHints(max_ranks=8))

    large = contrived_worst_case(400)
    worst = planner.plan(large, large)
    print(worst.explain())
    print()
    if worst.algorithm != "prna" or worst.engine != "batched":
        print(
            f"FAIL: n=400 worst case planned {worst.algorithm!r}/"
            f"{worst.engine!r}, expected 'prna'/'batched'"
        )
        return 1
    if worst.n_ranks < 2:
        print(f"FAIL: n=400 worst case planned {worst.n_ranks} rank(s)")
        return 1
    print("predicted stages: " + ", ".join(
        f"{name} {seconds:.3g}" for name, seconds in worst.predicted_stages
    ) + "\n")
    record = planner._calibration()
    cluster, _ = planner._resolve_cluster(
        planner.hints.resolved_max_ranks(), record
    )
    model = PRNASimulator(
        cluster=cluster, work_model=planner._work_model(record)[0],
        partitioner=worst.partitioner,
    ).price(large, large, worst.n_ranks, schedule=worst.sync_mode)
    if worst.estimated_seconds != model.total_seconds:
        print(
            f"FAIL: plan estimate {worst.estimated_seconds!r} s is not the "
            f"simulator model's {model.total_seconds!r} s"
        )
        return 1

    small = contrived_worst_case(40)
    quick = planner.plan(small, small)
    print(quick.explain())
    print()
    if quick.algorithm != "srna2" or quick.n_ranks != 1:
        print(
            f"FAIL: small input planned {quick.algorithm!r} on "
            f"{quick.n_ranks} rank(s), expected sequential 'srna2'"
        )
        return 1

    print(
        "plan-demo: OK — worst case routed to "
        f"{worst.n_ranks}-rank PRNA ({worst.engine} engine, "
        f"{worst.estimated_sequential_seconds:.2f}s sequential -> "
        f"{worst.estimated_seconds:.2f}s modeled), small input stays "
        "sequential"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
