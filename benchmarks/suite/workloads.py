"""The four benchmark workloads: seeded inputs, the timed call, score checks.

Each workload is a closed loop from one process: the next call starts only
after the previous one returns.  Inputs come only from ``--seed`` (the same
seed gives byte-identical inputs, see :meth:`Case.digest`); the program
under test sees nothing but the generated structures.

Where a workload's cost would otherwise swing with the seed, the generator
keeps the *amount* of work fixed and lets the seed change only the
topology: ``rrna-pair`` and the ``search`` query draw candidates from the
seed's stream and keep the one whose stage-one cell count is closest to a
fixed target, and target/pair lengths are stratified over their range
instead of drawn.  That is what lets runs on different seeds be compared.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import (
    ResourceHints,
    Structure,
    from_dotbracket,
    solve,
    solve_batch,
    to_dotbracket,
)
from repro.core.oracle import oracle_cache_clear, oracle_mcos
from repro.runtime.plan import Plan, Planner
from repro.structure.generators import contrived_worst_case, rna_like_structure

#: Ranks and pool workers a workload may use (and the planner may assume).
BUDGET = min(len(os.sched_getaffinity(0)), 4)

#: Candidates drawn per work-matched structure.
CANDIDATES = 24


def inside_total(structure: Structure) -> int:
    """Sum of per-arc inside counts; a self-pair tabulates its square in cells."""
    return int(structure.inside_count.sum())


def work_matched(
    rng: np.random.Generator, length: int, n_arcs: int, target: int
) -> Structure:
    """The candidate (of :data:`CANDIDATES`) whose inside total is nearest *target*."""
    candidates = [
        rna_like_structure(length, n_arcs, seed=rng) for _ in range(CANDIDATES)
    ]
    return min(candidates, key=lambda s: abs(inside_total(s) - target))


def stratified(lo: int, hi: int, count: int) -> list[int]:
    """*count* lengths spread evenly over ``[lo, hi]``."""
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * i // (count - 1) for i in range(count)]


@dataclass
class Case:
    """One workload's generated inputs plus its call and its checks.

    ``pairs`` are the ``(s1, s2)`` comparisons one call performs, in the
    order the per-layer replay visits them; ``texts`` are the dot-bracket
    strings the inputs are made of (what :meth:`digest` hashes).
    """

    name: str
    pairs: list[tuple[Structure, Structure]]
    texts: list[str]
    hints: ResourceHints
    #: The timed call: the scores it returned, keyed by pair index.
    call: Callable[[], dict[int, int]] = field(repr=False)
    #: Pair indices whose expected score is the pair's own arc count.
    self_pairs: frozenset[int] = frozenset()
    #: A search's latest hit list (its call refills it in place).
    last_hits: list[Any] = field(default_factory=list, repr=False)

    @property
    def pairs_per_call(self) -> int:
        return len(self.pairs) if self.name == "search" else 1

    def digest(self) -> str:
        """sha256 over the inputs, for the same-seed/same-bytes check."""
        h = hashlib.sha256()
        for text in self.texts:
            h.update(text.encode())
            h.update(b"\n")
        return h.hexdigest()

    def plan(self) -> Plan:
        """The plan the workload's calls resolve to (first pair for small-pairs)."""
        planner = Planner(self.hints)
        if self.name == "search":
            query = self.pairs[0][0]
            return planner.plan_batch(
                query, {str(i): t for i, (_, t) in enumerate(self.pairs)},
                n_workers=BUDGET,
            )
        s1, s2 = self.pairs[0]
        return planner.plan(s1, s2)


def build(name: str, seed: int, quick: bool = False) -> Case:
    """Generate workload *name*'s inputs from *seed* (``quick``: test sizes)."""
    rng = np.random.default_rng(seed)
    hints = ResourceHints(max_ranks=BUDGET)
    if name == "worst-pair":
        s = contrived_worst_case(300 if quick else 400)
        return _pair_case(name, s, hints)
    if name == "rrna-pair":
        length, arcs, target = (3000, 513, 8500) if quick else (4216, 721, 9592)
        return _pair_case(name, work_matched(rng, length, arcs, target), hints)
    if name == "search":
        n_targets = 12 if quick else 200
        query = work_matched(rng, 300, 75, 767)
        targets = [
            rna_like_structure(length, length // 4, seed=rng)
            for length in stratified(150, 450, n_targets)
        ]
        return _search_case(query, targets, hints)
    if name == "small-pairs":
        n_pairs = 40 if quick else 2000
        # Shuffled, so any stretch of the loop sees the same size mix.
        firsts = rng.permutation(stratified(70, 130, n_pairs))
        seconds = rng.permutation(stratified(70, 130, n_pairs))
        texts: list[str] = []
        for la, lb in zip(firsts.tolist(), seconds.tolist()):
            texts.append(to_dotbracket(rna_like_structure(la, la // 4, seed=rng)))
            texts.append(to_dotbracket(rna_like_structure(lb, lb // 4, seed=rng)))
        return _small_case(texts, hints)
    raise ValueError(f"unknown workload {name!r}")


def _pair_case(name: str, s: Structure, hints: ResourceHints) -> Case:
    return Case(
        name=name, pairs=[(s, s)], texts=[to_dotbracket(s)], hints=hints,
        call=lambda: {0: solve(s, s, hints=hints).score},
        self_pairs=frozenset({0}),
    )


def _search_case(
    query: Structure, targets: list[Structure], hints: ResourceHints
) -> Case:
    named = [("query", query)] + [(f"t{i:03d}", t) for i, t in enumerate(targets)]
    index = {name: k for k, (name, _) in enumerate(named)}
    hits: list[Any] = []

    def call() -> dict[int, int]:
        hits[:] = solve_batch(query, named, hints=hints, n_workers=BUDGET)
        return {index[hit.name]: hit.score for hit in hits}

    return Case(
        name="search", pairs=[(query, t) for _, t in named],
        texts=[to_dotbracket(t) for _, t in named], hints=hints, call=call,
        self_pairs=frozenset({0}), last_hits=hits,
    )


def _small_case(texts: list[str], hints: ResourceHints) -> Case:
    pairs = [
        (from_dotbracket(texts[2 * k]), from_dotbracket(texts[2 * k + 1]))
        for k in range(len(texts) // 2)
    ]
    cursor = [0]

    def call() -> dict[int, int]:
        k = cursor[0]
        cursor[0] = (k + 1) % len(pairs)
        return {k: solve(texts[2 * k], texts[2 * k + 1], hints=hints).score}

    return Case(name="small-pairs", pairs=pairs, texts=texts, hints=hints, call=call)


# ----------------------------------------------------------------------
# Timing and checking
# ----------------------------------------------------------------------
@dataclass
class Loop:
    """What one closed loop did: per-call seconds and the scores it returned."""

    seconds: list[float] = field(default_factory=list)
    scores: list[dict[int, int]] = field(default_factory=list)
    #: Per successful call: did a search rank its query first (always True
    #: for workloads without a query)?
    ranked_first: list[bool] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.seconds) + len(self.errors)


def run_loop(case: Case, seconds: float) -> Loop:
    """Call ``case.call`` back to back until *seconds* of timed calls pass."""
    loop = Loop()
    elapsed = 0.0
    while elapsed < seconds or loop.attempted == 0:
        start = time.perf_counter()
        try:
            scores = case.call()
        except Exception as exc:  # a failed call is counted, not fatal
            elapsed += time.perf_counter() - start
            loop.errors.append(f"{type(exc).__name__}: {exc}")
            continue
        took = time.perf_counter() - start
        elapsed += took
        loop.seconds.append(took)
        loop.scores.append(scores)
        loop.ranked_first.append(query_ranks_first(case))
    return loop


def query_ranks_first(case: Case) -> bool:
    """A search's query must top its own hit list with its own arc count."""
    if case.name != "search":
        return True
    hits = case.last_hits
    query = case.pairs[0][0]
    return bool(hits) and hits[0].name == "query" and hits[0].score == query.n_arcs


def expected_scores(case: Case) -> dict[int, int]:
    """Reference scores: the arc count for self-pairs, else the forest oracle.

    Each cross pair is checked once; the oracle is an independent
    decomposition of the problem (``repro.core.oracle``), so agreement is
    not the solver agreeing with itself.
    """
    expected: dict[int, int] = {}
    for k, (s1, s2) in enumerate(case.pairs):
        if k in case.self_pairs:
            expected[k] = s1.n_arcs
        else:
            expected[k] = oracle_mcos(s1, s2)
            oracle_cache_clear()
    return expected


def count_failures(loop: Loop, expected: dict[int, int]) -> int:
    """Calls that raised, returned any wrong score, or misranked the query."""
    wrong = sum(
        1
        for scores, first in zip(loop.scores, loop.ranked_first)
        if not first
        or any(expected.get(k) != score for k, score in scores.items())
    )
    return len(loop.errors) + wrong
