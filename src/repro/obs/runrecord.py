"""JSONL run records — one structured line per experiment or CLI run.

Every measurement the harness produces should be attributable: which run,
which code version, which machine, which parameters.  A *run record* bundles
exactly that and appends as one line of JSON to a log file, so longitudinal
analysis is ``[json.loads(line) for line in open(path)]`` — no database, no
schema migration, append-only.

The ``metrics`` field typically holds a solve's score and wall time, an
:meth:`~repro.core.instrument.Instrumentation.summary`, a
:class:`~repro.mpi.communicator.CommStats` dictionary or an experiment's
row dictionaries; anything JSON-serializable is accepted.
"""

from __future__ import annotations

import json
import os
import platform
import time
import uuid
from dataclasses import asdict, dataclass, field
from typing import Any

from repro._version import __version__

__all__ = [
    "RunRecord",
    "append_run_record",
    "environment_snapshot",
    "load_run_records",
    "new_run_id",
]


def new_run_id() -> str:
    """A sortable, collision-resistant run identifier."""
    stamp = time.strftime("%Y%m%dT%H%M%S")
    return f"{stamp}-{uuid.uuid4().hex[:8]}"


def environment_snapshot() -> dict[str, Any]:
    """Software/hardware metadata stamped into every run record."""
    snapshot: dict[str, Any] = {
        "repro_version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }
    try:
        import numpy

        snapshot["numpy"] = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        snapshot["numpy"] = None
    return snapshot


@dataclass
class RunRecord:
    """One run's identity, parameters, metrics and environment."""

    run_id: str
    kind: str  # e.g. "table1", "compare", "simulate"
    parameters: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    environment: dict[str, Any] = field(default_factory=environment_snapshot)
    timestamp: str = field(
        default_factory=lambda: time.strftime("%Y-%m-%dT%H:%M:%S")
    )

    def to_dict(self) -> dict[str, Any]:
        """The record as a plain JSON-serializable dict."""
        return asdict(self)


def append_run_record(path: str, record: "RunRecord | dict[str, Any]") -> None:
    """Append *record* to the JSONL log at *path* (created if missing)."""
    payload = record.to_dict() if isinstance(record, RunRecord) else record
    line = json.dumps(payload, sort_keys=True, default=str)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line)
        handle.write("\n")


def load_run_records(path: str) -> list[dict[str, Any]]:
    """All records of a JSONL log, oldest first (blank lines skipped)."""
    records: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
