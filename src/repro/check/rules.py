"""Per-module AST rule for the static pass.

The rule here checks a property no interprocedural pass covers; it is
deliberately *lexical* and tuned so that false positives are rare enough
to handle with ``# noqa`` comments:

* **ARCH001** — direct construction of run-scoped machinery
  (communicators, backend launchers, ``Tracer``, wrapped memo tables)
  outside :mod:`repro.runtime.context`, the layer that owns them.
  The defining substrate modules (``repro/mpi/*``, ``repro/obs/tracer.py``,
  ``repro/check/sanitizer.py``) are exempt; the context module itself
  carries the single sanctioned ``# noqa: ARCH001`` on its factory table.

Collective agreement, tag matching and dtype overflow are proved by the
protocol (:mod:`repro.check.protocol`) and dataflow
(:mod:`repro.check.dataflow`) passes; out-of-partition memo writes are
caught at runtime by the sanitizer (``SAN202``).
"""

from __future__ import annotations

import ast
import os

from repro.check.findings import Finding

__all__ = ["analyze_module"]


# ----------------------------------------------------------------------
# ARCH001 — runtime machinery constructed outside repro.runtime.context
# ----------------------------------------------------------------------
#: Factories whose *call* marks a construction the execution context owns.
_ARCH_FACTORIES = frozenset(
    {
        "Tracer",
        "SanitizedCommunicator",
        "SelfCommunicator",
        "ThreadCommunicator",
        "ProcessCommunicator",
        "run_threaded",
        "run_multiprocess",
    }
)

#: Modules allowed to construct freely: the substrate that *defines* the
#: machinery.  ``repro/runtime/context.py`` is deliberately NOT here — it
#: funnels every construction through one ``# noqa: ARCH001`` line.
_ARCH_EXEMPT_SUFFIXES = (
    "repro/obs/tracer.py",
    "repro/check/sanitizer.py",
)


def _arch_exempt(path: str) -> bool:
    norm = path.replace(os.sep, "/")
    if any(norm.endswith(suffix) for suffix in _ARCH_EXEMPT_SUFFIXES):
        return True
    return "/mpi/" in norm


def _arch_flagged_name(call: ast.Call) -> str | None:
    func = call.func
    name = (
        func.attr
        if isinstance(func, ast.Attribute)
        else func.id
        if isinstance(func, ast.Name)
        else None
    )
    if name in _ARCH_FACTORIES:
        return name
    if (
        name == "wrap"
        and isinstance(func, ast.Attribute)
        and ast.unparse(func.value).endswith("MemoTable")
    ):
        return f"{ast.unparse(func.value)}.wrap"
    return None


def _check_architecture(
    tree: ast.Module, path: str, findings: list[Finding]
) -> None:
    if _arch_exempt(path):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        flagged = _arch_flagged_name(node)
        if flagged is None:
            continue
        findings.append(
            Finding(
                "ARCH001",
                path,
                node.lineno,
                node.col_offset,
                f"direct construction of runtime machinery ({flagged!r}) "
                "outside repro.runtime.context — route through "
                "ExecutionContext (or its sanitize_communicator/"
                "result_memo helpers) so plans, stats and sanitizers "
                "stay consistent",
            )
        )


# ----------------------------------------------------------------------
def analyze_module(tree: ast.Module, path: str) -> list[Finding]:
    """Run the per-module rule (ARCH001) over one parsed module."""
    findings: list[Finding] = []
    _check_architecture(tree, path, findings)
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings
