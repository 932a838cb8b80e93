"""Static-pass driver: walk files, run every pass, filter ``# noqa``, report.

Used three ways, all sharing one option set (:func:`add_arguments`) and
:func:`run_check`:

* ``python -m repro.check [paths] [--sarif out.sarif] ...``
* the ``repro-check`` console script
* the ``repro-rna check`` subcommand

Every run is the full checker: the per-module rules (SPMD003, ARCH001),
the interprocedural protocol verifier (:mod:`repro.check.protocol`:
SPMD1xx collective agreement, SPMD2xx cross-module tag matching,
SCHED0xx schedule legality) and the numeric dataflow verifier
(:mod:`repro.check.dataflow` + :mod:`repro.check.costs`: DTYPE1xx
interval-proven overflows, SHAPE1xx shape/axis incompatibilities,
COST0xx cost-contract audits).
``--cache`` makes re-runs over an unchanged tree
near-instant (content-hash keyed, :mod:`repro.check.cache`), ``--sarif``
writes a SARIF 2.1.0 log for GitHub code scanning, and
``--baseline``/``--update-baseline`` implement a ratchet: grandfathered
findings are suppressed, *new* findings fail, and a baseline entry that
no longer matches anything is itself a finding (BASE001) so the baseline
only ever shrinks.

Exit codes: 0 clean, 1 findings, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import sys

from repro.check.callgraph import ProjectIndex
from repro.check.findings import (
    DEPRECATED_RULES,
    RULES,
    Finding,
    is_suppressed,
)
from repro.check.rules import analyze_module

__all__ = [
    "add_arguments",
    "analyze_source",
    "analyze_project",
    "baseline_fingerprint",
    "run_args",
    "run_check",
    "main",
]

#: Longest statement extent (in lines) searched for a trailing ``# noqa``
#: on a continuation line; larger statements fall back to the exact line.
_NOQA_EXTENT_CAP = 8


# ----------------------------------------------------------------------
# noqa filtering (statement-extent aware)
# ----------------------------------------------------------------------
def _statement_extents(tree: ast.Module) -> list[tuple[int, int]]:
    extents = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and node.end_lineno is not None:
            extents.append((node.lineno, node.end_lineno))
    return extents


def _noqa_lines_for(
    line: int, extents: list[tuple[int, int]]
) -> tuple[int, int]:
    """The line range to scan for a suppression covering *line*.

    A multi-line call carries its ``# noqa`` wherever black put the
    closing paren, so the smallest enclosing statement's full extent is
    scanned (capped: an 800-line function body should not let a stray
    noqa suppress everything inside it).
    """
    best: tuple[int, int] | None = None
    for lo, hi in extents:
        if lo <= line <= hi:
            if best is None or (hi - lo) < (best[1] - best[0]):
                best = (lo, hi)
    if best is None or (best[1] - best[0]) >= _NOQA_EXTENT_CAP:
        return (line, line)
    return best


def _filter_noqa(
    findings: list[Finding], lines: list[str], tree: ast.Module
) -> list[Finding]:
    extents = _statement_extents(tree)
    kept = []
    for finding in findings:
        lo, hi = _noqa_lines_for(finding.line, extents)
        suppressed = any(
            is_suppressed(finding.rule, lines[lineno - 1])
            for lineno in range(lo, min(hi, len(lines)) + 1)
            if lineno <= len(lines)
        )
        if not suppressed:
            kept.append(finding)
    return kept


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _by_location(finding: Finding) -> tuple:
    return (finding.path, finding.line, finding.col, finding.rule)


def _module_findings(
    index: ProjectIndex, path: str, source: str
) -> list[Finding]:
    """The per-module rules over one indexed file, ``# noqa`` applied."""
    tree = index.modules[path].tree
    raw = analyze_module(
        tree, path, shm_factories=frozenset(index.shm_factories)
    )
    return _filter_noqa(raw, source.splitlines(), tree)


def _program_findings(
    index: ProjectIndex, sources: dict[str, str]
) -> list[Finding]:
    """The protocol and dataflow passes over every indexed module.

    ``# noqa`` comments are honoured per file, as for per-module rules.
    """
    from repro.check.costs import analyze_costs
    from repro.check.dataflow import analyze_dataflow
    from repro.check.protocol import analyze_protocol

    trees = {path: info.tree for path, info in index.modules.items()}
    raw = analyze_protocol(trees, index=index)
    raw += analyze_dataflow(trees, index=index)
    raw += analyze_costs(index)
    by_path: dict[str, list[Finding]] = {}
    for finding in raw:
        by_path.setdefault(finding.path, []).append(finding)
    kept: list[Finding] = []
    for path, findings in by_path.items():
        if path in sources:
            findings = _filter_noqa(
                findings, sources[path].splitlines(), trees[path]
            )
        kept.extend(findings)
    return kept


def analyze_source(source: str, path: str = "<string>") -> list[Finding]:
    """Run every rule over one source as a one-module program.

    The per-module rules, the protocol pass and the dataflow pass all
    see just this module; ``# noqa`` comments are honoured.  Raises
    :class:`SyntaxError` if *source* does not parse.
    """
    index = ProjectIndex({path: ast.parse(source, filename=path)})
    findings = _module_findings(index, path, source)
    findings += _program_findings(index, {path: source})
    return sorted(findings, key=_by_location)


def _python_files(paths: list[str]) -> list[str]:
    files: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d not in {"__pycache__", ".git"}
                )
                files.extend(
                    os.path.join(root, name)
                    for name in sorted(names)
                    if name.endswith(".py")
                )
        else:
            raise FileNotFoundError(path)
    return files


def analyze_project(
    paths: list[str], *, cache=None
) -> tuple[list[Finding], int]:
    """All findings under *paths* plus the file count.

    The per-module rules run with call-graph shm factories (SPMD003);
    the protocol and dataflow passes run over every file at once.
    *cache* is an optional :class:`repro.check.cache.CheckCache`.
    Raises :class:`UnicodeError` naming a file that is not UTF-8.
    """
    files = _python_files(paths)
    sources: dict[str, str] = {}
    shas: dict[str, str] = {}
    for filename in files:
        with open(filename, "rb") as handle:
            data = handle.read()
        shas[filename] = hashlib.sha256(data).hexdigest()
        try:
            sources[filename] = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise UnicodeError(f"cannot decode {filename}: {exc}") from exc

    if cache is not None:
        hit = cache.lookup_tree(shas)
        if hit is not None:
            return sorted(hit, key=_by_location), len(files)

    index = ProjectIndex(
        {name: ast.parse(sources[name], filename=name) for name in files}
    )
    project_sig = None
    if cache is not None:
        project_sig = cache.project_signature(index)

    per_file: dict[str, list[Finding]] = {}
    for filename in files:
        cached = None
        if cache is not None:
            cached = cache.lookup_file(filename, shas[filename], project_sig)
        if cached is None:
            cached = _module_findings(index, filename, sources[filename])
        per_file[filename] = cached
    program = _program_findings(index, sources)

    if cache is not None:
        cache.store(shas, project_sig, per_file, program)
    findings = [f for fs in per_file.values() for f in fs] + program
    return sorted(findings, key=_by_location), len(files)


# ----------------------------------------------------------------------
# Baseline / ratchet
# ----------------------------------------------------------------------
def baseline_fingerprint(finding: Finding, source_line: str) -> str:
    """A location-drift-tolerant identity for one finding.

    Hashes the rule, the file's basename, the *content* of the flagged
    line (whitespace-stripped) — so renaming a directory or inserting a
    line above does not churn the baseline — but not the line number.
    """
    basename = os.path.basename(finding.path.replace("\\", "/"))
    key = f"{finding.rule}|{basename}|{source_line.strip()}"
    return hashlib.sha1(key.encode()).hexdigest()


def _fingerprints(findings: list[Finding]) -> dict[str, Finding]:
    """fingerprint -> finding (occurrence-counted for duplicates)."""
    line_cache: dict[str, list[str]] = {}
    result: dict[str, Finding] = {}
    counts: dict[str, int] = {}
    for finding in findings:
        if finding.path not in line_cache:
            try:
                with open(finding.path, encoding="utf-8") as handle:
                    line_cache[finding.path] = handle.read().splitlines()
            except OSError:
                line_cache[finding.path] = []
        lines = line_cache[finding.path]
        text = lines[finding.line - 1] if finding.line <= len(lines) else ""
        base = baseline_fingerprint(finding, text)
        occurrence = counts.get(base, 0)
        counts[base] = occurrence + 1
        result[f"{base}:{occurrence}"] = finding
    return result


def load_baseline(path: str) -> set[str]:
    """The fingerprints recorded in the baseline file at *path*.

    Raises :class:`ValueError` unless the file holds a JSON object with
    a list of strings under ``fingerprints``.
    """
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    fingerprints = data.get("fingerprints") if isinstance(data, dict) else None
    if not isinstance(fingerprints, list) or not all(
        isinstance(item, str) for item in fingerprints
    ):
        raise ValueError(
            f"{path}: expected an object with a list of strings under "
            "'fingerprints'"
        )
    return set(fingerprints)


def write_baseline(path: str, findings: list[Finding]) -> int:
    fingerprints = sorted(_fingerprints(findings))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"version": 1, "fingerprints": fingerprints}, handle,
                  indent=2)
        handle.write("\n")
    return len(fingerprints)


def apply_baseline(
    findings: list[Finding], baseline_path: str
) -> list[Finding]:
    """Suppress grandfathered findings; flag stale baseline entries.

    Returns the new findings plus one BASE001 per baseline fingerprint
    that no current finding matches (the ratchet: fixing a grandfathered
    finding *requires* removing its baseline entry).
    """
    grandfathered = load_baseline(baseline_path)
    current = _fingerprints(findings)
    fresh = [
        finding
        for fingerprint, finding in current.items()
        if fingerprint not in grandfathered
    ]
    stale = grandfathered - set(current)
    for fingerprint in sorted(stale):
        fresh.append(
            Finding(
                "BASE001", baseline_path, 1, 0,
                f"baseline entry {fingerprint[:12]}... matches no current "
                "finding — the underlying issue was fixed; remove the "
                "entry (or regenerate with --update-baseline)",
            )
        )
    fresh.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return fresh


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _default_paths() -> list[str]:
    if os.path.isdir(os.path.join("src", "repro")):
        return [os.path.join("src", "repro")]
    # Fall back to the installed package location.
    return [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]


def run_check(
    paths: list[str] | None = None,
    *,
    json_output: bool = False,
    stream=None,
    sarif_path: str | None = None,
    baseline_path: str | None = None,
    update_baseline: bool = False,
    cache_path: str | None = None,
) -> int:
    """Run the static pass and print a report; returns the exit code."""
    stream = stream if stream is not None else sys.stdout
    paths = paths or _default_paths()
    cache = None
    if cache_path is not None:
        from repro.check.cache import CheckCache

        cache = CheckCache(cache_path)
    try:
        findings, n_files = analyze_project(paths, cache=cache)
    except FileNotFoundError as exc:
        print(f"repro.check: no such path: {exc}", file=sys.stderr)
        return 2
    except UnicodeError as exc:
        print(f"repro.check: {exc}", file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(f"repro.check: cannot parse {exc.filename}: {exc}",
              file=sys.stderr)
        return 2
    if update_baseline:
        if baseline_path is None:
            print("repro.check: --update-baseline requires --baseline PATH",
                  file=sys.stderr)
            return 2
        count = write_baseline(baseline_path, findings)
        print(
            f"repro.check: baseline written to {baseline_path} "
            f"({count} grandfathered finding(s))",
            file=stream,
        )
        return 0
    if baseline_path is not None:
        try:
            findings = apply_baseline(findings, baseline_path)
        except (OSError, ValueError) as exc:
            print(f"repro.check: cannot read baseline: {exc}",
                  file=sys.stderr)
            return 2
    if sarif_path is not None:
        from repro.check.sarif import to_sarif

        with open(sarif_path, "w", encoding="utf-8") as handle:
            json.dump(to_sarif(findings), handle, indent=2)
            handle.write("\n")
    if json_output:
        payload = {
            "version": 1,
            "checked_files": n_files,
            "findings": [finding.as_dict() for finding in findings],
        }
        print(json.dumps(payload, indent=2), file=stream)
    else:
        for finding in findings:
            print(finding.render(), file=stream)
        summary = (
            f"repro.check: {len(findings)} finding(s) in {n_files} file(s)"
            if findings
            else f"repro.check: OK ({n_files} files, 0 findings)"
        )
        print(summary, file=stream)
    return 1 if findings else 0


#: One-paragraph description shared by ``repro-check`` and
#: ``repro-rna check``.
DESCRIPTION = (
    "SPMD static analysis for the PRNA stack: per-module rules "
    "SPMD003/ARCH001, protocol rules SPMD1xx/SPMD2xx/SCHED0xx and numeric "
    "dataflow rules DTYPE1xx/SHAPE1xx/COST0xx, all on every run "
    "(see docs/static-analysis.md)"
)


def add_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Declare every checker option on *parser* and return it.

    The one definition behind both ``repro-check`` and ``repro-rna
    check``; pair it with :func:`run_args`.
    """
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories (default: src/repro)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="json_output",
        help="machine-readable findings for CI annotation",
    )
    parser.add_argument(
        "--sarif", metavar="PATH", dest="sarif_path",
        help="write findings as SARIF 2.1.0 (GitHub code scanning)",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", dest="baseline_path",
        help="suppress findings recorded in this baseline file; stale "
        "entries become BASE001 findings (ratchet mode)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write the current findings to --baseline and exit 0",
    )
    parser.add_argument(
        "--cache", metavar="PATH", dest="cache_path",
        help="incremental findings cache keyed by file content hashes "
        "(re-running on an unchanged tree is near-instant)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def run_args(args: argparse.Namespace) -> int:
    """Execute a checker command line parsed by :func:`add_arguments`."""
    if args.list_rules:
        for rule, summary in sorted(RULES.items()):
            tag = " [deprecated]" if rule in DEPRECATED_RULES else ""
            print(f"{rule}{tag}  {summary}")
        return 0
    return run_check(
        args.paths or None,
        json_output=args.json_output,
        sarif_path=args.sarif_path,
        baseline_path=args.baseline_path,
        update_baseline=args.update_baseline,
        cache_path=args.cache_path,
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro.check`` / ``repro-check``)."""
    parser = argparse.ArgumentParser(
        prog="repro-check", description=DESCRIPTION
    )
    return run_args(add_arguments(parser).parse_args(argv))
