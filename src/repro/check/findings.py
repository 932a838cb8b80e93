"""Finding records and the static rule catalog.

Every static rule has a stable ID (``SPMD101``...), a one-line summary
here, and a full description with examples in ``docs/static-analysis.md``.
Runtime sanitizer diagnostics use the ``SAN1xx``/``SAN2xx`` space and are
documented alongside (they are raised, not collected, so they carry no
:class:`Finding`).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import asdict, dataclass

__all__ = [
    "RULES",
    "DEPRECATED_RULES",
    "RULESET_VERSION",
    "Finding",
    "is_suppressed",
]

#: Static rule catalog: ID -> one-line summary.
RULES: dict[str, str] = {
    "SPMD003": (
        "write through a DenseMemoTable.wrap handle outside an "
        "owned-partition guard (the cell belongs to another rank, whose "
        "own write races this one)"
    ),
    "ARCH001": (
        "direct construction of communicators/Tracer/wrapped memo tables "
        "outside repro.runtime.context (route through ExecutionContext so "
        "plans, stats and sanitizers stay consistent)"
    ),
    # -- protocol verifier (interprocedural, rank-symbolic) -------------
    "SPMD101": (
        "collective schedules diverge between feasible rank paths — some "
        "rank reaches a collective its peers never issue and the world "
        "deadlocks there (static counterpart of SAN101/SAN103)"
    ),
    "SPMD102": (
        "aligned collective with rank-dependent metadata (reduce op or "
        "root differs across ranks; static counterpart of SAN102)"
    ),
    "SPMD103": (
        "collective inside a loop whose trip count is rank-dependent — "
        "ranks issue different numbers of collectives and deadlock at "
        "the first mismatch"
    ),
    "SPMD201": (
        "send whose constant tag matches no receive anywhere in the "
        "analyzed program (interprocedural, cross-module constants; "
        "static counterpart of SAN104)"
    ),
    "SPMD202": (
        "receive whose constant tag no send in the analyzed program "
        "produces — this recv blocks forever (static SAN104)"
    ),
    "SCHED001": (
        "executor schedule publishes a memo cell after an arc that reads "
        "it — the d1/d2 dependency order is violated (runtime verdict "
        "would be SAN202/diverged tables)"
    ),
    "SCHED002": (
        "executor schedule claims soundness but publishes nothing "
        "intra-stage (every cross-rank d1/d2 read sees a stale row)"
    ),
    "SCHED003": (
        "executor schedule declaration inconsistent with the registry "
        "(unknown executor, sync mode, or publication order)"
    ),
    "BASE001": (
        "stale baseline entry: a grandfathered finding no longer occurs "
        "— remove it from the baseline so the ratchet stays tight"
    ),
    # -- numeric dataflow verifier (interval/shape abstract interp) -----
    "DTYPE101": (
        "narrow integer dtype reaches a lift/pack kernel whose value "
        "range provably overflows it under the registry's declared input "
        "bounds (the segmented prefix-max lift offsets segment s by "
        "s * stride)"
    ),
    "DTYPE102": (
        "shifted/packed value provably exceeds the word width of the "
        "integer array it is stored into (interval analysis proves the "
        "packed bits do not fit)"
    ),
    "DTYPE103": (
        "lossy narrowing cast: the value range flowing into an astype()/"
        "narrow store provably exceeds the target dtype's representable "
        "range"
    ),
    "SHAPE101": (
        "memo gather with transposed axes: the np.ix_ row index is "
        "S2-derived or the column index is S1-derived — the memo axis "
        "contract is M[k1-side, k2-side]"
    ),
    "SHAPE102": (
        "elementwise/broadcast/out= operands with provably incompatible "
        "lengths (constant mismatch or same symbolic root at different "
        "offsets — the off-by-one boundary-column class)"
    ),
    "SHAPE103": (
        "gather/scatter index map provably mismatched with its source or "
        "destination length (searchsorted column maps, np.take out=, "
        "dest[idx] = src)"
    ),
    "COST001": (
        "statically extracted loop-nest/vector-op degree of a kernel "
        "disagrees with the degree its registry CostContract declares — "
        "the Planner's WorkModel would misprice every plan using it"
    ),
    "COST002": (
        "cost-contract registry inconsistency: an engine without a "
        "CostContract, or a contract whose entry point does not resolve "
        "in the analyzed tree"
    ),
}

#: Deprecated rule IDs and the rules each one aliases.  A deprecated ID is
#: never emitted, but its ``# noqa`` token still suppresses the canonical
#: rules, and ``--list-rules`` marks it.
DEPRECATED_RULES: dict[str, tuple[str, ...]] = {
    "SPMD001": ("SPMD101", "SPMD103"),
    "SPMD002": ("SPMD201", "SPMD202"),
    "SPMD004": ("DTYPE101",),
}

RULES.update(
    {
        alias: f"deprecated alias of {'/'.join(canonical)} — never emitted; "
        f"'# noqa: {alias}' still suppresses the canonical rules"
        for alias, canonical in DEPRECATED_RULES.items()
    }
)


def _ruleset_version() -> str:
    """Short content hash of the rule catalog.

    Folded into the incremental-cache key (:mod:`repro.check.cache`) so
    adding, removing or re-documenting a rule invalidates cached verdicts
    instead of silently replaying them.
    """
    digest = hashlib.sha256()
    for rule in sorted(RULES):
        digest.update(rule.encode())
        digest.update(RULES[rule].encode())
    return digest.hexdigest()[:12]


#: Version tag of the enabled rule set (content hash of the catalog).
RULESET_VERSION = _ruleset_version()

#: ``# noqa`` / ``# noqa: SPMD101, SPMD003`` on the flagged line.
_NOQA_RE = re.compile(
    r"#\s*noqa\b(?::?\s*(?P<codes>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*))?",
)


@dataclass(frozen=True)
class Finding:
    """One static-analysis hit: a rule violated at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """``path:line:col: RULE message`` (editor-clickable)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict:
        """Plain-dict form for the ``--json`` CI payload."""
        return asdict(self)


def is_suppressed(rule: str, source_line: str) -> bool:
    """Whether *source_line* carries a ``# noqa`` comment covering *rule*.

    A bare ``# noqa`` suppresses every rule on that line; ``# noqa:
    SPMD101, SPMD003`` suppresses only the listed rules.  Anything after
    the code list (an em-dash rationale, say) is ignored.

    A deprecated alias keeps suppressing its canonical rules: ``# noqa:
    SPMD001`` written against the old lexical rule also covers SPMD101
    and SPMD103, so deprecating a rule never un-suppresses existing code.
    """
    match = _NOQA_RE.search(source_line)
    if match is None:
        return False
    codes = match.group("codes")
    if codes is None:
        return True
    listed = {code.strip() for code in codes.split(",")}
    if rule in listed:
        return True
    return any(
        alias in listed
        for alias, canonical in DEPRECATED_RULES.items()
        if rule in canonical
    )
