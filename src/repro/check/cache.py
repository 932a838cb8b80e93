"""Incremental findings cache for the static pass.

Real analyzers are run on every save; the protocol and dataflow passes
are whole-program and therefore super-linear in tree size, so re-running
them on an unchanged tree has to be near-free.  The cache stores, per
analyzed file, the SHA-256 of its contents plus the per-module findings
produced for it.  The per-module rule reads nothing but its own file, so
a per-file entry is reused whenever its content hash matches.

Protocol and dataflow findings are whole-program by construction, so they
are keyed by the **tree hash** (hash of every file's content hash plus
the rule-set version, :data:`repro.check.findings.RULESET_VERSION`, so
changing the rule catalog invalidates stale entries).  The fast path:
when every file's hash is unchanged, :meth:`CheckCache.lookup_tree`
returns the complete cached result without parsing a single module,
which is what makes the warm re-run an order of magnitude cheaper than
the cold one (the acceptance bar in ``BENCH_check.json``).

The cache file is JSON under ``.repro-check-cache.json`` next to the
tree being analyzed (or an explicit ``--cache PATH``); a version bump in
:data:`CACHE_VERSION` invalidates old caches wholesale, and a file that
does not have the expected shape is treated as an empty cache.  Rule
catalog changes need no manual bump: a cache written under another
rule-set version is discarded on load, and the version is part of the
tree hash.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.check.findings import RULESET_VERSION, Finding

__all__ = ["CheckCache", "file_sha", "CACHE_VERSION"]

CACHE_VERSION = 5

DEFAULT_CACHE_NAME = ".repro-check-cache.json"


def file_sha(data: bytes) -> str:
    """SHA-256 hex digest of one file's raw bytes (the cache key)."""
    return hashlib.sha256(data).hexdigest()


def _findings_to_json(findings: list[Finding]) -> list[dict]:
    return [finding.as_dict() for finding in findings]


def _findings_from_json(items: list[dict]) -> list[Finding]:
    return [Finding(**item) for item in items]


class CheckCache:
    """Content-hash-keyed findings cache with a whole-tree fast path."""

    def __init__(self, cache_path: str):
        self.cache_path = cache_path
        self._data = self._load()
        self.hits = 0
        self.misses = 0

    def _load(self) -> dict:
        """The cache file's contents; empty if unreadable, stale or malformed.

        Every entry is decoded once here, so a malformed file is dropped
        as a whole instead of failing halfway through a lookup.
        """
        try:
            with open(self.cache_path, encoding="utf-8") as handle:
                data = json.load(handle)
            if (
                data["version"] != CACHE_VERSION
                or data["rules"] != RULESET_VERSION
            ):
                return self._empty()
            for entry in data["files"].values():
                if not isinstance(entry["sha"], str):
                    raise TypeError("file entry without a sha")
                _findings_from_json(entry["findings"])
            _findings_from_json(data["program"])
        except (OSError, ValueError, LookupError, TypeError, AttributeError):
            return self._empty()
        return data

    @staticmethod
    def _empty() -> dict:
        return {
            "version": CACHE_VERSION,
            "rules": RULESET_VERSION,
            "tree_sha": None,
            "files": {},
            "program": [],
        }

    # ------------------------------------------------------------------
    @staticmethod
    def tree_sha(shas: dict[str, str]) -> str:
        """One digest over every (path, sha) pair plus the rule-set version."""
        digest = hashlib.sha256()
        digest.update(f"rules:{RULESET_VERSION};".encode())
        for path in sorted(shas):
            digest.update(path.encode())
            digest.update(shas[path].encode())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    def lookup_tree(self, shas: dict[str, str]) -> list[Finding] | None:
        """Every cached finding when *nothing* changed, else ``None``.

        Needs no parse of any module.  The rule-set version is part of
        the key, so a cache written against an older rule catalog never
        satisfies the current one.
        """
        if self._data.get("tree_sha") != self.tree_sha(shas):
            return None
        cached_files = self._data["files"]
        if set(cached_files) != set(shas):
            return None
        findings: list[Finding] = []
        for path, sha in shas.items():
            entry = cached_files[path]
            if entry["sha"] != sha:
                return None
            findings.extend(_findings_from_json(entry["findings"]))
        findings.extend(_findings_from_json(self._data["program"]))
        self.hits += len(shas)
        return findings

    def lookup_file(self, path: str, sha: str) -> list[Finding] | None:
        """Cached per-file findings when the file's content hash matches."""
        entry = self._data["files"].get(path)
        if entry is None or entry["sha"] != sha:
            self.misses += 1
            return None
        self.hits += 1
        return _findings_from_json(entry["findings"])

    # ------------------------------------------------------------------
    def store(
        self,
        shas: dict[str, str],
        per_file: dict[str, list[Finding]],
        program: list[Finding],
    ) -> None:
        """Persist this run's findings keyed by content hashes.

        Written atomically (tempfile + ``os.replace``); I/O failures are
        swallowed — the cache is an accelerator, never a correctness
        dependency.
        """
        self._data = {
            "version": CACHE_VERSION,
            "rules": RULESET_VERSION,
            "tree_sha": self.tree_sha(shas),
            "files": {
                path: {
                    "sha": shas[path],
                    "findings": _findings_to_json(per_file.get(path, [])),
                }
                for path in shas
            },
            "program": _findings_to_json(program),
        }
        tmp = self.cache_path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(self._data, handle)
            os.replace(tmp, self.cache_path)
        except OSError:  # pragma: no cover - read-only tree; cache is best-effort
            try:
                os.unlink(tmp)
            except OSError:
                pass
