"""Span-based tracing with Chrome trace-event (Perfetto) export.

The paper's whole evaluation is an exercise in knowing where time goes
inside a data-driven recurrence — Table III's per-stage shares, Figure 8's
compute-vs-wait breakdown.  :class:`Tracer` is the library's common event
model for that accounting: named, attributed intervals (*spans*) on one
track per PRNA rank, recorded with :func:`time.perf_counter` and exported
as Chrome trace-event JSON that https://ui.perfetto.dev opens directly.

Design constraints:

* **near-zero overhead when disabled** — ``Tracer(enabled=False).span(...)``
  returns a shared no-op context manager and touches no locks, so
  instrumented hot paths cost one attribute check;
* **thread-safe** — PRNA's thread backend records from every rank
  concurrently; the event list is guarded by a lock taken only *after* the
  span's end timestamp is read;
* **self-describing export** — :func:`validate_chrome_trace` checks the
  schema (``ph``/``ts``/``dur``/``pid``/``tid``) so tests and
  ``make trace-demo`` can assert a file is loadable before shipping it.

Span categories carry the Figure 8 semantics used by
:mod:`repro.obs.report`: ``"compute"`` for tabulation work, ``"comm"`` for
time inside (or waiting at) collectives, anything else for annotation
spans that do not enter the busy-time accounting.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = [
    "SpanEvent",
    "Tracer",
    "load_chrome_trace",
    "validate_chrome_trace",
]

#: The single process id used for all tracks (one Python process; the
#: "processes" of interest are PRNA ranks, mapped to Perfetto threads).
TRACE_PID = 0


@dataclass(frozen=True)
class SpanEvent:
    """One completed span: a named interval on a rank's track."""

    name: str
    category: str
    start: float  # seconds since the tracer's epoch
    duration: float  # seconds
    rank: int  # Perfetto track (tid)
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_chrome(self) -> dict[str, Any]:
        """This span as one Chrome trace-event ``"ph": "X"`` record."""
        event: dict[str, Any] = {
            "name": self.name,
            "cat": self.category,
            "ph": "X",
            "ts": self.start * 1e6,  # Chrome wants microseconds
            "dur": self.duration * 1e6,
            "pid": TRACE_PID,
            "tid": self.rank,
        }
        if self.args:
            event["args"] = dict(self.args)
        return event


class _NullSpan:
    """Shared no-op context manager returned by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """An open span; records itself on the tracer at ``__exit__``."""

    __slots__ = ("_tracer", "_name", "_category", "_rank", "_args", "_start")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        rank: int,
        args: dict[str, Any],
    ):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._rank = rank
        self._args = args

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = time.perf_counter()
        tracer = self._tracer
        start = self._start - tracer._epoch
        event = SpanEvent(
            name=self._name,
            category=self._category,
            start=start,
            duration=end - self._start,
            rank=self._rank,
            args=self._args,
        )
        with tracer._lock:
            tracer._events.append(event)
        return False


class Tracer:
    """Thread-safe span recorder with Chrome trace-event export.

    Usage::

        tracer = Tracer()
        with tracer.span("tabulate_row", rank=3, category="compute", row=7):
            ...work...
        tracer.write("run.trace.json")   # open in ui.perfetto.dev
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._events: list[SpanEvent] = []
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()
        self._track_names: dict[int, str] = {}

    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        *,
        rank: int = 0,
        category: str = "default",
        **args: Any,
    ):
        """Context manager timing one named interval on *rank*'s track."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, category, rank, args)

    def name_track(self, rank: int, name: str) -> None:
        """Label *rank*'s track in the exported trace (idempotent)."""
        if not self.enabled:
            return
        with self._lock:
            self._track_names[rank] = name

    def merge(self, events: Iterable[SpanEvent]) -> None:
        """Append spans recorded elsewhere against this tracer's epoch.

        :meth:`ExecutionContext.launch` returns a forked process rank's
        spans this way: the child inherits ``_epoch`` at fork and
        :func:`time.perf_counter` is one system-wide monotonic clock on
        Linux, so the child's offsets need no rebasing.
        """
        with self._lock:
            self._events.extend(events)

    # ------------------------------------------------------------------
    @property
    def events(self) -> tuple[SpanEvent, ...]:
        """All completed spans, in completion order."""
        with self._lock:
            return tuple(self._events)

    def to_chrome_trace(self) -> dict[str, Any]:
        """The full trace as a Chrome trace-event JSON object."""
        with self._lock:
            events = list(self._events)
            track_names = dict(self._track_names)
        records: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": 0,
                "args": {"name": "repro"},
            }
        ]
        ranks = sorted({e.rank for e in events} | set(track_names))
        for rank in ranks:
            records.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": TRACE_PID,
                    "tid": rank,
                    "args": {"name": track_names.get(rank, f"rank {rank}")},
                }
            )
        records.extend(event.to_chrome() for event in events)
        return {"traceEvents": records, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        """Write the Chrome trace-event JSON to *path*.

        Parent directories are created as needed (mirroring
        ``append_run_record``).
        """
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle)
            handle.write("\n")


# ----------------------------------------------------------------------
# Loading and validation (used by `repro trace-report` and `make trace-demo`).
# ----------------------------------------------------------------------
def validate_chrome_trace(payload: Any) -> list[str]:
    """Schema problems of a Chrome trace-event object (empty = valid).

    Checks the subset of the format the library emits and Perfetto needs:
    a ``traceEvents`` list whose entries carry ``ph``/``pid``/``tid``,
    with ``"X"`` (complete) events also carrying numeric ``ts``/``dur``.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "M", "B", "E", "i", "C"):
            problems.append(f"{where}: missing or unknown 'ph' ({ph!r})")
            continue
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: missing integer {key!r}")
        if "name" not in event:
            problems.append(f"{where}: missing 'name'")
        if ph == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)):
                    problems.append(f"{where}: 'X' event missing numeric {key!r}")
                elif value < 0:
                    problems.append(f"{where}: negative {key!r}")
    return problems


def load_chrome_trace(path: str) -> dict[str, Any]:
    """Load and validate a Chrome trace-event JSON file.

    Raises :class:`ValueError` naming the first few schema problems when
    the file is not a valid trace.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    problems = validate_chrome_trace(payload)
    if problems:
        shown = "; ".join(problems[:3])
        raise ValueError(f"{path} is not a valid Chrome trace: {shown}")
    return payload
