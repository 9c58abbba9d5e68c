"""Observability: cycle-domain tracing, pass instrumentation, metrics.

The analysis story of the paper (Fig. 10's cycle breakdowns, Sec. VII-A's
queue and RA traffic) is built on aggregate counters; this package adds the
*disaggregated* view needed to actually tune a pipeline:

* :mod:`repro.obs.tracer` — an opt-in, near-zero-cost-when-off cycle-domain
  event tracer threaded through the Pipette simulator (scheduler spans,
  stall intervals by bucket, queue occupancy samples, RA loads);
* :mod:`repro.obs.chrometrace` — exports a trace to Chrome trace-event JSON
  (loadable in ``chrome://tracing`` or Perfetto) with one track per stage
  thread and counter tracks for queue occupancy;
* :mod:`repro.obs.timeline` — a pure-Python summarizer: per-stage
  utilization, the bottleneck stage per time window, top-k stall intervals;
* :mod:`repro.obs.passes` — compiler pass instrumentation (wall time, IR
  deltas, optional before/after IR snapshots);
* :mod:`repro.obs.search` — records what the profile-guided search scored
  and why the winner won;
* :mod:`repro.obs.record` — versioned, schema'd ``RunRecord`` dicts
  (JSON/JSONL) unifying simulator stats, cache hit rates, and pass timings:
  the one shape a finished simulation takes, with the slicers (gmean
  speedups, sections normalised to serial) every table folds them with;
* :mod:`repro.obs.report` — the unified experiment report (``repro
  report``): walks a results directory of RunRecords, perf baselines,
  lint diags, timelines, and telemetry snapshots into one
  :class:`~repro.obs.report.ExperimentReport` with markdown and HTML
  renderers;
* :mod:`repro.obs.log` — the one diagnostics funnel (quiet-able stderr).

Everything here is opt-in: with no :class:`Tracer` attached, the simulator
allocates no event buffers and figure output stays byte-identical.
"""

from .chrometrace import export_chrome_trace, validate_chrome_trace, write_chrome_trace
from .log import get_quiet, is_quiet, log, set_quiet
from .passes import PassProfiler
from .record import (
    RECORD_SCHEMA,
    RECORD_VERSION,
    by_kernel,
    gmean_speedups,
    merge_records,
    normalized,
    read_jsonl,
    record_of,
    run_record,
    stamp_cache,
    write_jsonl,
)
from .report import (
    REPORT_SCHEMA,
    REPORT_VERSION,
    ExperimentReport,
    collect,
    render_html,
    render_markdown,
    spark,
)
from .search import SearchRecorder
from .timeline import render_timeline, summarize_timeline
from .tracer import Tracer

__all__ = [
    "Tracer",
    "export_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "summarize_timeline",
    "render_timeline",
    "PassProfiler",
    "SearchRecorder",
    "RECORD_SCHEMA",
    "RECORD_VERSION",
    "run_record",
    "record_of",
    "stamp_cache",
    "by_kernel",
    "gmean_speedups",
    "normalized",
    "merge_records",
    "write_jsonl",
    "read_jsonl",
    "ExperimentReport",
    "collect",
    "render_markdown",
    "render_html",
    "spark",
    "REPORT_SCHEMA",
    "REPORT_VERSION",
    "log",
    "set_quiet",
    "get_quiet",
    "is_quiet",
]
