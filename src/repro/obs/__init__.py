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

from .. import _lazy_exports

# Eager: ``log`` names both a submodule and the function, and the function
# must be what ``repro.obs.log`` resolves to. The module is a few lines.
from .log import get_quiet, is_quiet, log, set_quiet

#: Re-exported name -> the submodule that defines it, resolved on first use
#: (like :mod:`repro`'s own): a cold ``emit``/``lint`` needs only ``log``
#: and must not pay for the report, the trace exporter or the timeline.
_EXPORTS = {
    "Tracer": "tracer",
    "export_chrome_trace": "chrometrace",
    "validate_chrome_trace": "chrometrace",
    "write_chrome_trace": "chrometrace",
    "summarize_timeline": "timeline",
    "render_timeline": "timeline",
    "PassProfiler": "passes",
    "SearchRecorder": "search",
    "RECORD_SCHEMA": "record",
    "RECORD_VERSION": "record",
    "run_record": "record",
    "record_of": "record",
    "stamp_cache": "record",
    "by_kernel": "record",
    "gmean_speedups": "record",
    "normalized": "record",
    "merge_records": "record",
    "write_jsonl": "record",
    "read_jsonl": "record",
    "ExperimentReport": "report",
    "collect": "report",
    "render_markdown": "report",
    "render_html": "report",
    "spark": "report",
    "REPORT_SCHEMA": "report",
    "REPORT_VERSION": "report",
}

__all__ = list(_EXPORTS) + ["log", "set_quiet", "get_quiet", "is_quiet"]

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
