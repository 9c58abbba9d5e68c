"""Unified experiment reporting (``repro report``).

The repo's evaluation artifacts are rich but scattered: RunRecord JSONL
streams (:mod:`repro.obs.record`), committed perf baselines with their
measurement history (``BENCH_*.json``, :mod:`repro.bench.perf`), lint
diagnostics (``repro lint --json``), timeline summaries
(:mod:`repro.obs.timeline`), and live daemon telemetry
(:mod:`repro.service.telemetry`). This module walks a results directory,
classifies every file by its wire schema, aggregates the lot into one
typed :class:`ExperimentReport`, and renders it as markdown or a
single-file HTML page (stdlib only, no plotting dependency — sparklines
are unicode blocks).

The report answers the GARDENIA-style questions every perf PR should
self-document: per-kernel speedup tables across variants, Fig. 10-style
stall breakdowns, cache effectiveness, lint status, the simulator's
perf trajectory across committed baseline history, and — when a daemon
stats/telemetry snapshot is present — the served traffic's latency
distributions, so an offline experiment and a served session read
identically.

Classification is by schema tag, never by filename: anything the repo's
other subsystems emit is recognized wherever it lands, and unknown files
are listed as skipped rather than guessed at.
"""

import html as _html
import json
import os
from dataclasses import dataclass, field

from .record import RECORD_SCHEMA, by_kernel, gmean_speedups, merge_records, normalized, read_jsonl

#: Schema identity of a rendered report's structured summary.
REPORT_SCHEMA = "repro.obs/experiment-report"
REPORT_VERSION = 1

#: Wire schema tags this module consumes. Spelled out here (rather than
#: imported) because the report is a *consumer* of wire objects: it must
#: recognize files written by any version of the producers without
#: importing their modules.
PERF_BASELINE_SCHEMA = "repro.bench/perf-baseline"
PERF_RECORD_SCHEMA = "repro.bench/perf-record"
#: The one perf-baseline shape this module renders; other versions are
#: listed as skipped rather than misread.
PERF_VERSION = 2
TELEMETRY_SCHEMA = "repro.service/telemetry"
LINT_REPORT_SCHEMA = "repro.diag/lint-report"

#: The Fig. 10 cycle buckets, in presentation order. ``branch``/``barrier``
#: are the informational decomposition of ``other`` and stay out of totals.
BREAKDOWN_BUCKETS = ("issue", "backend", "queue", "other")

_SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: What every record this module slices must carry (a schema-tagged line
#: without them is skipped like any other unrecognised file content).
_RUN_FIELDS = {"bench", "variant", "input", "cycles"}


def spark(values):
    """Unicode sparkline of a numeric series (empty series → empty string)."""
    values = [float(v) for v in values]
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK_CHARS[3] * len(values)
    scale = (len(_SPARK_CHARS) - 1) / (hi - lo)
    return "".join(_SPARK_CHARS[int((v - lo) * scale + 0.5)] for v in values)


@dataclass
class ExperimentReport:
    """Everything one results directory said, in one typed value."""

    title: str = "experiment report"
    #: ``[{"file", "kind", "items"}]`` — every file consumed (or skipped).
    sources: list = field(default_factory=list)
    #: Deduplicated RunRecords across every JSONL stream.
    runs: list = field(default_factory=list)
    #: Latest perf baseline payloads (one per ``BENCH_*.json`` consumed).
    perf: list = field(default_factory=list)
    #: Perf history entries across all baselines, in recording order.
    trajectory: list = field(default_factory=list)
    #: Lint reports: ``[{"target", "errors", "warnings", "diagnostics"}]``.
    lint: list = field(default_factory=list)
    #: Timeline summaries (:func:`repro.obs.timeline.summarize_timeline`).
    timelines: list = field(default_factory=list)
    #: Service telemetry snapshots (:mod:`repro.service.telemetry`).
    telemetry: list = field(default_factory=list)

    # -- derived views -------------------------------------------------------

    def kernels(self):
        """Sorted set of benchmark kernels the report covers."""
        names = {r.get("bench") for r in self.runs if r.get("bench")}
        for payload in self.perf:
            names.update(r.get("bench") for r in payload.get("records", []))
        return sorted(n for n in names if n)

    def variants(self):
        """Sorted set of run variants across all RunRecords."""
        return sorted({r.get("variant") for r in self.runs if r.get("variant")})

    def cache_summary(self):
        """Per-layer hit/miss totals, one contribution per source file.

        Records within one stream share the stream's per-request cache
        delta, so summing across records would multiply-count; instead
        each source file contributes its delta once.
        """
        by_file = {}
        for r in self.runs:
            cache = r.get("cache")
            if cache:
                by_file.setdefault(r.get("_source", ""), cache)
        totals = {}
        for cache in by_file.values():
            for layer, counts in cache.items():
                row = totals.setdefault(layer, {"hits": 0, "misses": 0})
                row["hits"] += counts.get("hits", 0)
                row["misses"] += counts.get("misses", 0)
        for row in totals.values():
            total = row["hits"] + row["misses"]
            row["hit_rate"] = round(row["hits"] / total, 4) if total else 0.0
        return totals

    def lint_rollup(self):
        """Totals and per-code counts across every lint report."""
        errors = warnings = 0
        codes = {}
        for entry in self.lint:
            errors += entry.get("errors", 0)
            warnings += entry.get("warnings", 0)
            for diag in entry.get("diagnostics", []):
                code = diag.get("code")
                if code:
                    codes[code] = codes.get(code, 0) + 1
        return {
            "targets": len(self.lint),
            "errors": errors,
            "warnings": warnings,
            "codes": dict(sorted(codes.items())),
        }

    def summary(self):
        """The small schema-stamped record a ``report`` response streams."""
        return {
            "schema": REPORT_SCHEMA,
            "version": REPORT_VERSION,
            "title": self.title,
            "kernels": self.kernels(),
            "variants": self.variants(),
            "sections": {
                "runs": len(self.runs),
                "perf": len(self.perf),
                "trajectory": len(self.trajectory),
                "lint": len(self.lint),
                "timelines": len(self.timelines),
                "telemetry": len(self.telemetry),
            },
            "sources": [s["file"] for s in self.sources if s["kind"] != "skipped"],
            "lint_rollup": self.lint_rollup(),
        }


# ---------------------------------------------------------------------------
# Collection


def _classify(payload):
    """``(kind, items)`` for one parsed JSON payload, by schema tag."""
    if not isinstance(payload, dict):
        return "skipped", None
    schema = payload.get("schema")
    if schema == LINT_REPORT_SCHEMA:
        reports = payload.get("reports")
        return ("lint", reports) if isinstance(reports, list) else ("skipped", None)
    if schema == PERF_BASELINE_SCHEMA:
        return ("perf", payload) if payload.get("version") == PERF_VERSION else ("skipped", None)
    if schema == TELEMETRY_SCHEMA:
        return "telemetry", payload
    if isinstance(payload.get("telemetry"), dict) and "counts" in payload:
        # A saved daemon `stats` reply: the telemetry snapshot rides inside.
        return "stats", payload
    if "utilization" in payload and "wall" in payload:
        return "timeline", payload
    return "skipped", None


def collect(results_dir, extra_files=(), title=None):
    """Walk ``results_dir`` (recursively) into one :class:`ExperimentReport`.

    ``extra_files`` are consumed in addition to the directory walk — the
    CLI passes the committed ``BENCH_pipette.json`` so the trajectory
    section works even when the baseline lives outside the results
    directory. Files are visited in sorted order, so the report is
    deterministic for a given tree.
    """
    paths = []
    if results_dir and os.path.isdir(results_dir):
        for dirpath, dirnames, filenames in os.walk(results_dir):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".json", ".jsonl")):
                    paths.append(os.path.join(dirpath, name))
    seen = {os.path.abspath(p) for p in paths}
    for path in extra_files:
        if path and os.path.exists(path) and os.path.abspath(path) not in seen:
            paths.append(path)
            seen.add(os.path.abspath(path))

    report = ExperimentReport(
        title=title or "experiment report (%s)" % (results_dir or "no directory")
    )
    record_lists = []
    for path in paths:
        display = (
            os.path.relpath(path, results_dir)
            if results_dir and os.path.isdir(results_dir)
            and os.path.abspath(path).startswith(os.path.abspath(results_dir) + os.sep)
            else os.path.basename(path)
        )
        try:
            if path.endswith(".jsonl"):
                records = [
                    dict(r, _source=display)
                    for r in read_jsonl(path)
                    if isinstance(r, dict)
                    and r.get("schema") == RECORD_SCHEMA
                    and _RUN_FIELDS <= r.keys()
                ]
                kind, items = ("runs", len(records)) if records else ("skipped", 0)
                if records:
                    record_lists.append(records)
            else:
                with open(path) as handle:
                    payload = json.load(handle)
                kind, data = _classify(payload)
                items = 0
                if kind == "lint":
                    report.lint.extend(data)
                    items = len(data)
                elif kind == "perf":
                    report.perf.append(data)
                    report.trajectory.extend(data.get("history") or [])
                    items = len(data.get("records", []))
                elif kind == "telemetry":
                    report.telemetry.append(data)
                    items = len(data.get("verbs", {}))
                elif kind == "stats":
                    report.telemetry.append(data["telemetry"])
                    items = len(data["telemetry"].get("verbs", {}))
                    kind = "telemetry"
                elif kind == "timeline":
                    report.timelines.append(data)
                    items = len(data.get("utilization", {}))
        except (OSError, ValueError):
            kind, items = "skipped", 0
        report.sources.append({"file": display, "kind": kind, "items": items})

    report.runs = merge_records(*record_lists)
    return report


# ---------------------------------------------------------------------------
# Shared table shaping (both renderers walk the same rows)


def _fmt_num(value, places=2):
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == int(value) and abs(value) >= 1000:
            return "%d" % int(value)
        return ("%%.%df" % places) % value
    return str(value)


def _speedup_rows(report):
    """One row per kernel, one cell per variant: cycles summed and speedup
    geometric-averaged over the kernel's inputs."""
    variants = report.variants()
    speedups = gmean_speedups(report.runs)
    rows = []
    for bench, runs in sorted(by_kernel(report.runs).items()):
        row = [bench]
        for variant in variants:
            if variant not in runs:
                row.append("-")
                continue
            cell = _fmt_num(sum(r["cycles"] for r in runs[variant]), 0)
            if speedups[bench][variant] is not None:
                cell += " (%sx)" % _fmt_num(speedups[bench][variant])
            row.append(cell)
        rows.append(row)
    return ["kernel"] + variants, rows


def _stall_rows(report):
    """Each (kernel, variant)'s Fig. 10 buckets — normalised to serial per
    input, averaged over inputs — as shares of their total."""
    rows = []
    for bench, variants in sorted(normalized(report.runs, "breakdown").items()):
        for variant, breakdown in sorted(variants.items()):
            total = sum(breakdown.get(b, 0.0) for b in BREAKDOWN_BUCKETS)
            if total <= 0:
                continue
            rows.append(
                [bench, variant]
                + [
                    "%.1f%%" % (100.0 * breakdown.get(b, 0.0) / total)
                    for b in BREAKDOWN_BUCKETS
                ]
            )
    return ["kernel", "variant"] + ["%s" % b for b in BREAKDOWN_BUCKETS], rows


# Canonical engine ordering and short column labels (mirrors
# repro.pipette.config.ENGINES without importing the simulator here).
_ENGINE_ORDER = ("reference", "fastpath", "batch")
_ENGINE_LABELS = {"reference": "ref", "fastpath": "fast", "batch": "batch"}


def _engine_sorted(names):
    order = {name: i for i, name in enumerate(_ENGINE_ORDER)}
    return sorted(names, key=lambda n: (order.get(n, len(_ENGINE_ORDER)), n))


def _perf_rows(payload):
    records = payload.get("records", [])
    names = _engine_sorted({name for r in records for name in r["engines"]})
    header = ["bench", "cycles"]
    header += ["%s (s)" % _ENGINE_LABELS.get(n, n) for n in names]
    header += ["%s (x)" % _ENGINE_LABELS.get(n, n) for n in names if n != "reference"]
    header.append("Mcyc/s")
    rows = []
    for r in records:
        engines = r["engines"]
        row = [r.get("bench"), _fmt_num(float(r.get("cycles", 0)), 0)]
        row += [_fmt_num((engines.get(n) or {}).get("wall_s"), 3) for n in names]
        row += [
            "%sx" % _fmt_num((engines.get(n) or {}).get("speedup"))
            for n in names
            if n != "reference"
        ]
        # Throughput of the most advanced engine this record measured.
        row.append(_fmt_num(engines[_engine_sorted(engines)[-1]].get("sim_mcycles_per_s")))
        rows.append(row)
    return header, rows


def _perf_aggregate_line(agg):
    """``(headline speedup, per-engine detail)`` of one baseline aggregate:
    the headline is the most advanced engine's ratio over the reference."""
    names = _engine_sorted(agg)
    bits = []
    for name in names:
        bit = "%s %ss" % (_ENGINE_LABELS.get(name, name), _fmt_num(agg[name].get("wall_s"), 3))
        if name != "reference":
            bit += " %sx" % _fmt_num(agg[name].get("speedup"))
        bits.append(bit)
    headline = agg[names[-1]].get("speedup") if names else None
    return _fmt_num(headline), "; ".join(bits)


def _trajectory_rows(report):
    rows = []
    for entry in report.trajectory:
        agg = entry.get("aggregate", {})
        rows.append(
            [
                str(entry.get("git", "?")),
                str(entry.get("engine", "?")),
                str(entry.get("scale", "?")),
                "%sx" % _fmt_num(agg.get("speedup")),
                _fmt_num(agg.get("wall_s"), 3),
                str(entry.get("recorded", "")),
            ]
        )
    return (
        ["git", "engine", "scale", "aggregate speedup", "wall (s)", "recorded"],
        rows,
    )


def _trajectory_sparks(report):
    """``[(label, sparkline, latest)]`` series across the history.

    History points are grouped per engine: one baseline update can append a
    point per measured engine, so a flat walk would interleave the engines'
    speedups in a single series. Labels carry the engine only when
    more than one appears; engines with a single point are left to the
    trajectory table.
    """
    groups = {}
    for entry in report.trajectory:
        groups.setdefault(entry.get("engine", "?"), []).append(entry)
    multi = len(groups) > 1
    out = []
    for engine in _engine_sorted(groups):
        entries = groups[engine]
        if len(entries) < 2:
            continue
        suffix = " [%s]" % engine if multi else ""
        series = [
            (
                "aggregate speedup" + suffix,
                [e.get("aggregate", {}).get("speedup") or 0.0 for e in entries],
            )
        ]
        benches = sorted(
            {b for e in entries for b in (e.get("benches") or {})}
        )
        for bench in benches:
            values = [
                ((e.get("benches") or {}).get(bench) or {}).get("sim_mcycles_per_s")
                for e in entries
            ]
            if sum(1 for v in values if v is not None) >= 2:
                series.append(
                    (
                        "%s Mcyc/s%s" % (bench, suffix),
                        [v if v is not None else 0.0 for v in values],
                    )
                )
        out += [
            (label, spark(values), _fmt_num(values[-1]))
            for label, values in series
        ]
    return out


def _telemetry_rows(snapshot):
    rows = []
    for verb, row in sorted(snapshot.get("verbs", {}).items()):
        latency = row.get("latency", {})
        outcomes = row.get("outcomes", {})
        count = latency.get("count", 0)
        mean = (latency.get("sum_s", 0.0) / count) if count else 0.0
        rows.append(
            [
                verb,
                str(row.get("requests", 0)),
                str(outcomes.get("completed", 0)),
                str(outcomes.get("failed", 0)),
                str(outcomes.get("rejected", 0)),
                "%.3f" % mean,
                _fmt_num(latency.get("p50_s"), 3),
                _fmt_num(latency.get("p90_s"), 3),
                _fmt_num(latency.get("p99_s"), 3),
            ]
        )
    return (
        ["verb", "requests", "completed", "failed", "rejected",
         "mean (s)", "p50 (s)", "p90 (s)", "p99 (s)"],
        rows,
    )


def _cache_rows(cache):
    rows = []
    for layer, counts in sorted(cache.items()):
        total = counts.get("hits", 0) + counts.get("misses", 0)
        rate = counts.get("hit_rate")
        if rate is None:
            rate = counts["hits"] / total if total else 0.0
        rows.append(
            [layer, str(counts.get("hits", 0)), str(counts.get("misses", 0)),
             "%.0f%%" % (100.0 * rate)]
        )
    return ["layer", "hits", "misses", "hit rate"], rows


def _timeline_lines(summary):
    lines = ["wall %s cycles" % _fmt_num(float(summary.get("wall", 0.0)), 0)]
    utilization = summary.get("utilization", {})
    busiest = sorted(
        utilization.items(), key=lambda kv: (-kv[1].get("busy", 0.0), kv[0])
    )[:3]
    for thread, row in busiest:
        lines.append(
            "%s: %.0f%% utilized (busy %s)"
            % (thread, 100.0 * row.get("utilization", 0.0), _fmt_num(row.get("busy"), 0))
        )
    top = summary.get("top_stalls") or []
    if top:
        worst = top[0]
        lines.append(
            "worst stall: %s %s for %s cycles at %s"
            % (
                worst.get("thread"),
                worst.get("bucket"),
                _fmt_num(worst.get("cycles"), 0),
                _fmt_num(worst.get("start"), 0),
            )
        )
    return lines


# ---------------------------------------------------------------------------
# The document: one block list, walked by the markdown and the HTML renderer
#
# A block is ``("h", level, text)``, ``("p", spans)``, ``("note", spans)``
# (a paragraph of secondary text), ``("table", header, rows)`` — the same
# ``(header, rows)`` :func:`repro.bench.report.render_table` prints as ASCII
# — or ``("list", [spans, ...])``. ``spans`` is a list of ``(style, text)``
# pairs; the styles are the keys of :data:`_MD_STYLES` / :data:`_HTML_STYLES`.


def _blocks(report):
    """The whole report as a flat block list, title first."""
    consumed = [s for s in report.sources if s["kind"] != "skipped"]
    skipped = len(report.sources) - len(consumed)
    files = [span for s in consumed for span in (("", ", "), ("code", s["file"]))][1:]
    intro = [
        ("", "Aggregated from %d file(s)%s: "
         % (len(consumed), " (%d skipped)" % skipped if skipped else ""))
    ] + (files or [("", "none")])
    blocks = [("h", 1, report.title), ("note", intro)]

    if report.runs:
        inputs = {(r["bench"], r["input"]) for r in report.runs}
        folded = (
            " A kernel with several inputs shows their total cycles and"
            " geometric-mean speedup."
            if len(inputs) > len({bench for bench, _ in inputs}) else ""
        )
        blocks += [
            ("h", 2, "Per-kernel speedups"),
            ("table",) + _speedup_rows(report),
            ("note", [("", "Cells are "), ("code", "cycles (speedup vs serial)"), ("", "; "),
                      ("code", "-"), ("", " = variant not run." + folded)]),
        ]
        header, rows = _stall_rows(report)
        if rows:
            blocks += [("h", 2, "Cycle breakdown (Fig. 10 buckets)"), ("table", header, rows)]
        cache = report.cache_summary()
        if cache:
            blocks += [("h", 2, "Cache effectiveness"), ("table",) + _cache_rows(cache)]

    if report.lint:
        rollup = report.lint_rollup()
        codes = ", ".join("%s ×%d" % (c, n) for c, n in rollup["codes"].items())
        blocks += [
            ("h", 2, "Lint status"),
            ("p", [
                ("", "%d target(s): " % rollup["targets"]),
                ("bad" if rollup["errors"] or rollup["warnings"] else "ok",
                 "%d error(s), %d warning(s)" % (rollup["errors"], rollup["warnings"])),
                ("", " — " + codes if codes else ""),
            ]),
        ]

    for payload in report.perf:
        headline, detail = _perf_aggregate_line(payload.get("aggregate", {}))
        blocks += [
            ("h", 2, "Simulator performance (%s scale)" % payload.get("scale")),
            ("table",) + _perf_rows(payload),
            ("p", [("", "Aggregate: "), ("strong", "%sx" % headline), ("", " (%s)." % detail)]),
        ]

    sparks = _trajectory_sparks(report)
    if sparks:
        blocks += [
            ("h", 2, "Perf trajectory (%d points)" % len(report.trajectory)),
            ("list", [
                [("spark", line), ("", " %s (latest %s)" % (label, latest))]
                for label, line, latest in sparks
            ]),
            ("table",) + _trajectory_rows(report),
        ]

    for summary in report.timelines:
        blocks += [
            ("h", 2, "Timeline"),
            ("list", [[("", line)] for line in _timeline_lines(summary)]),
        ]

    for snapshot in report.telemetry:
        blocks += [
            ("h", 2, "Service telemetry (uptime %ss, peak %d in flight)"
             % (_fmt_num(snapshot.get("uptime_s")), snapshot.get("in_flight_peak", 0))),
            ("table",) + _telemetry_rows(snapshot),
        ]
        if snapshot.get("unrouted"):
            blocks.append(("p", [("", "Unrouted requests: %d" % snapshot["unrouted"])]))
        if snapshot.get("rejections"):
            rejections = ", ".join(
                "%s ×%d" % (code, n) for code, n in sorted(snapshot["rejections"].items())
            )
            blocks.append(("p", [("", "Rejections: " + rejections)]))
        if snapshot.get("cache"):
            blocks += [
                ("h", 3, "Served cache effectiveness"),
                ("table",) + _cache_rows(snapshot["cache"]),
            ]
    return blocks


_MD_STYLES = {"": "%s", "code": "`%s`", "spark": "`%s`",
              "strong": "**%s**", "ok": "**%s**", "bad": "**%s**"}


def render_markdown(report):
    """The whole report as GitHub-flavored markdown."""

    def inline(spans):
        return "".join(_MD_STYLES[style] % text for style, text in spans)

    out = []
    for kind, *body in _blocks(report):
        if kind == "h":
            out.append("#" * body[0] + " " + body[1])
        elif kind == "table":
            header, rows = body
            lines = ["| " + " | ".join(str(h) for h in header) + " |"]
            lines.append("|" + "|".join(" --- " for _ in header) + "|")
            lines += ["| " + " | ".join(str(cell) for cell in row) + " |" for row in rows]
            out.append("\n".join(lines) if rows else "(no data)")
        elif kind == "list":
            out.append("\n".join("- " + inline(item) for item in body[0]))
        else:
            out.append(inline(body[0]))
    return "\n\n".join(out) + "\n"


_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 60rem; color: #1a1a2e; }
h1 { border-bottom: 2px solid #4a4e69; padding-bottom: .3rem; }
h2 { color: #4a4e69; margin-top: 2rem; }
table { border-collapse: collapse; margin: .5rem 0; }
th, td { border: 1px solid #c9cbd8; padding: .25rem .6rem; text-align: right; }
th:first-child, td:first-child { text-align: left; }
th { background: #f2f2f7; }
.spark { font-family: monospace; font-size: 1.1rem; color: #3a6ea5; }
.meta { color: #666; font-size: .9rem; }
.ok { color: #2a7f3f; } .bad { color: #b3261e; }
""".strip()

_HTML_STYLES = {"": "%s", "code": "%s", "strong": "<strong>%s</strong>",
                "spark": "<span class=\"spark\">%s</span>",
                "ok": "<span class=\"ok\">%s</span>", "bad": "<span class=\"bad\">%s</span>"}


def render_html(report):
    """The whole report as one self-contained HTML page (stdlib only)."""
    esc = _html.escape

    def inline(spans):
        return "".join(_HTML_STYLES[style] % esc(text) for style, text in spans)

    def cells(tag, row):
        return "".join("<%s>%s</%s>" % (tag, esc(str(cell)), tag) for cell in row)

    parts = [
        "<!DOCTYPE html>",
        "<html lang=\"en\"><head><meta charset=\"utf-8\">",
        "<title>%s</title>" % esc(report.title),
        "<style>%s</style>" % _CSS,
        "</head><body>",
    ]
    for kind, *body in _blocks(report):
        if kind == "h":
            parts.append("<h%d>%s</h%d>" % (body[0], esc(body[1]), body[0]))
        elif kind == "table" and body[1]:
            parts.append(
                "<table><thead><tr>%s</tr></thead><tbody>%s</tbody></table>"
                % (cells("th", body[0]), "".join("<tr>%s</tr>" % cells("td", r) for r in body[1]))
            )
        elif kind == "table":
            parts.append("<p class=\"meta\">(no data)</p>")
        elif kind == "list":
            parts.append("<ul>%s</ul>" % "".join("<li>%s</li>" % inline(i) for i in body[0]))
        else:
            parts.append(
                "<p%s>%s</p>" % (" class=\"meta\"" if kind == "note" else "", inline(body[0]))
            )
    parts.append("</body></html>")
    return "\n".join(parts)
