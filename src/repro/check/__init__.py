"""``repro.check`` — SPMD static analysis and runtime sanitizers.

PRNA's correctness hangs on an *implicit* SPMD protocol: every rank must
issue the same per-row ``Allreduce(MAX)`` sequence, and each rank may only
write its owned columns of the memo between row synchronizations.  Nothing
in the algorithm itself checks any of this — a rank-conditional collective
or an out-of-partition write silently deadlocks or corrupts ``M``.

This package verifies the protocol in four complementary layers.  The
three static ones run together on every ``python -m repro.check`` /
``repro-rna check`` (:mod:`repro.check.static`: suppression comments,
JSON/SARIF output, content-hash incremental caching, a baseline ratchet
and a nonzero exit code on findings):

* **static, per-module** (:mod:`repro.check.rules`) — an AST linter for
  the one property no interprocedural pass covers: run-scoped machinery
  built outside the execution context (``ARCH001``);
* **static, whole-program** (:mod:`repro.check.protocol`)
  — a rank-symbolic interprocedural interpreter that extracts each
  abstract rank's communication schedule and proves collective agreement
  (``SPMD1xx``), cross-module tag matching (``SPMD2xx``), and executor
  dependency-schedule legality against the recurrence's ``d1``/``d2``
  structure (``SCHED0xx``);
* **static, numeric** (:mod:`repro.check.dataflow` +
  :mod:`repro.check.costs`) — interval/shape/dtype
  abstract interpretation of the kernels proving dtype overflows under
  the registry's declared input bounds (``DTYPE1xx``), shape and
  memo-axis incompatibilities (``SHAPE1xx``), and auditing every
  registered :class:`~repro.runtime.registry.CostContract` against the
  statically extracted loop-nest degree (``COST0xx``);
* **dynamic** (:mod:`repro.check.sanitizer`) — a
  :class:`~repro.check.sanitizer.SanitizedCommunicator` that stamps every
  collective with a sequence number, op, dtype, shape, and call site and
  cross-validates the stamps at the rendezvous (diagnostics
  ``SAN101``-``SAN104``), plus a memo-table race detector that diffs the
  memo table against a per-rank shadow at every row ``Allreduce``
  (``SAN201``-``SAN203``).

See ``docs/static-analysis.md`` for the rule catalog and the sanitizer
protocol.
"""

from repro.check.findings import RULES, Finding
from repro.check.sanitizer import SanitizedCommunicator, SanitizedMemoTable
from repro.check.static import analyze_project, analyze_source, run_check

__all__ = [
    "Finding",
    "RULES",
    "SanitizedCommunicator",
    "SanitizedMemoTable",
    "analyze_project",
    "analyze_source",
    "run_check",
]
