"""repro.obs — unified tracing and run records for the whole library.

"No optimization without measuring" (ROADMAP): this package is the common
substrate every experiment and performance PR reports against.

* :mod:`repro.obs.tracer` — span-based tracing with one track per PRNA
  rank on every backend (process ranks ship their spans back through
  :meth:`~repro.runtime.ExecutionContext.launch`), exported as Chrome
  trace-event JSON (open in https://ui.perfetto.dev);
* :mod:`repro.obs.runrecord` — append-only JSONL run records carrying a
  run id and environment snapshot;
* :mod:`repro.obs.report` — per-rank compute/comm-wait/idle summaries of a
  trace file (Figure 8's categories), backing ``repro-rna trace-report``.

See ``docs/observability.md`` for the event model and a worked example.
"""

from repro.obs.report import RankSummary, TraceReport, summarize_trace
from repro.obs.runrecord import (
    RunRecord,
    append_run_record,
    environment_snapshot,
    load_run_records,
    new_run_id,
)
from repro.obs.tracer import (
    SpanEvent,
    Tracer,
    load_chrome_trace,
    validate_chrome_trace,
)

__all__ = [
    "RankSummary",
    "RunRecord",
    "SpanEvent",
    "TraceReport",
    "Tracer",
    "append_run_record",
    "environment_snapshot",
    "load_chrome_trace",
    "load_run_records",
    "new_run_id",
    "summarize_trace",
    "validate_chrome_trace",
]
