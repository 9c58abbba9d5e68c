"""Report aggregation over synthesized results trees, plus both renderers."""

import json
from html.parser import HTMLParser

import pytest

from repro.obs import (
    REPORT_SCHEMA,
    REPORT_VERSION,
    collect,
    render_html,
    render_markdown,
    run_record,
    spark,
    write_jsonl,
)
from repro.obs.report import ExperimentReport, _speedup_rows, _stall_rows


def _run(bench, variant, cycles, speedup=None, breakdown=None, cache=None, input_name="tiny"):
    return run_record(
        bench,
        variant,
        input_name,
        cycles,
        ok=True,
        speedup=speedup,
        breakdown=breakdown,
        cache_stats=cache,
    )


def _per_engine(cycles, reference_wall, **walls):
    """The ``engines`` map of a v2 perf record."""
    walls = dict(reference=reference_wall, **walls)
    return {
        name: {
            "wall_s": wall,
            "speedup": reference_wall / wall,
            "sim_mcycles_per_s": cycles / wall / 1e6,
        }
        for name, wall in walls.items()
    }


def _history_point(git, engine, recorded, speedup, reference_wall=2.0):
    return {
        "git": git,
        "engine": engine,
        "scale": "quick",
        "recorded": recorded,
        "aggregate": {
            "wall_s": reference_wall / speedup,
            "reference_wall_s": reference_wall,
            "speedup": speedup,
        },
        "benches": {
            "bfs": {"sim_mcycles_per_s": 0.005 * speedup / reference_wall, "speedup": speedup}
        },
    }


def _perf_baseline(with_history=True, **engine_walls):
    """A v2 baseline: reference 2.0 s plus ``engine_walls`` (default: a
    1.0 s fastpath)."""
    engine_walls = engine_walls or {"fastpath": 1.0}
    engines = _per_engine(5000, 2.0, **engine_walls)
    record = {
        "schema": "repro.bench/perf-record",
        "version": 2,
        "bench": "bfs",
        "scale": "quick",
        "input": "power_law(deg=3,n=120,seed=7)",
        "repeats": 2,
        "cycles": 5000,
        "engines": engines,
        "phases": {},
    }
    payload = {
        "schema": "repro.bench/perf-baseline",
        "version": 2,
        "scale": "quick",
        "records": [record],
        "aggregate": {
            name: {"wall_s": per["wall_s"], "reference_wall_s": 2.0, "speedup": per["speedup"]}
            for name, per in engines.items()
        },
    }
    if with_history:
        payload["history"] = [
            _history_point("abc1234", "fastpath", "2026-08-01", 1.8),
            _history_point("def5678", "fastpath", "2026-08-07", 2.0),
        ]
    return payload


def _multi_engine_perf():
    """A baseline written by an ``--engine all`` run: per-engine records
    plus a history interleaving fastpath and batch points."""
    payload = _perf_baseline(with_history=False, fastpath=1.0, batch=0.5)
    payload["history"] = [
        _history_point(git, engine, "2026-08-0%d" % day, x)
        for day, (git, engine, x) in enumerate(
            [
                ("aaa1111", "fastpath", 1.8),
                ("aaa1111", "batch", 3.4),
                ("bbb2222", "fastpath", 2.0),
                ("bbb2222", "batch", 4.0),
            ]
        )
    ]
    return payload


def _telemetry_snapshot():
    return {
        "schema": "repro.service/telemetry",
        "version": 1,
        "uptime_s": 42.0,
        "in_flight": 0,
        "in_flight_peak": 2,
        "rejections": {"rate-limited": 1},
        "verbs": {
            "metrics": {
                "requests": 3,
                "outcomes": {"completed": 2, "failed": 0, "rejected": 1},
                "latency": {
                    "buckets": [{"le": 0.1, "count": 2}, {"le": "+Inf", "count": 2}],
                    "count": 2,
                    "sum_s": 0.08,
                    "p50_s": 0.05,
                    "p90_s": 0.1,
                    "p99_s": 0.1,
                },
            }
        },
        "cache": {"pipeline": {"hits": 4, "misses": 1, "hit_rate": 0.8}},
    }


@pytest.fixture
def results_dir(tmp_path):
    """A realistic results tree: runs, lint, perf, timeline, telemetry."""
    cache = {"pipeline": {"hits": 3, "misses": 1}}
    bd = {"issue": 50.0, "backend": 30.0, "queue": 15.0, "other": 5.0}
    write_jsonl(
        [
            _run("bfs", "serial", 1000.0, cache=cache),
            _run("bfs", "phloem-static", 400.0, speedup=2.5, breakdown=bd, cache=cache),
            _run("cc", "serial", 800.0, cache=cache),
            _run("cc", "phloem-static", 500.0, speedup=1.6, cache=cache),
        ],
        str(tmp_path / "runs.jsonl"),
    )
    (tmp_path / "lint.json").write_text(
        json.dumps(
            {
                "schema": "repro.diag/lint-report",
                "version": 1,
                "reports": [
                    {
                        "target": "bfs.c",
                        "errors": 0,
                        "warnings": 1,
                        "diagnostics": [{"code": "PHL010", "severity": "warning"}],
                    }
                ],
            }
        )
    )
    # A bare report list carries no schema tag: skipped, never guessed at.
    (tmp_path / "lint_untagged.json").write_text(
        json.dumps(
            [
                {
                    "file": "cc.c",
                    "errors": 0,
                    "warnings": 1,
                    "diagnostics": [{"code": "PHL402", "severity": "warning"}],
                }
            ]
        )
    )
    (tmp_path / "perf.json").write_text(json.dumps(_perf_baseline()))
    (tmp_path / "timeline.json").write_text(
        json.dumps(
            {
                "wall": 100.0,
                "utilization": {"s0": {"busy": 90.0, "utilization": 0.9, "stalls": {}}},
                "critical": [],
                "top_stalls": [
                    {"thread": "s0", "bucket": "queue", "cycles": 20.0, "start": 10.0}
                ],
            }
        )
    )
    (tmp_path / "telemetry.json").write_text(json.dumps(_telemetry_snapshot()))
    (tmp_path / "notes.json").write_text(json.dumps({"free": "form"}))
    return str(tmp_path)


class TestSpark:
    def test_empty_series(self):
        assert spark([]) == ""

    def test_flat_series_is_midline(self):
        assert spark([3.0, 3.0, 3.0]) == "▄▄▄"

    def test_monotone_series_spans_the_blocks(self):
        line = spark([0, 1, 2, 3, 4, 5, 6, 7])
        assert line[0] == "▁" and line[-1] == "█"
        assert len(line) == 8


class TestCollect:
    def test_classifies_every_source_by_schema(self, results_dir):
        report = collect(results_dir)
        kinds = {s["file"]: s["kind"] for s in report.sources}
        assert kinds["runs.jsonl"] == "runs"
        assert kinds["lint.json"] == "lint"
        assert kinds["lint_untagged.json"] == "skipped"
        assert kinds["perf.json"] == "perf"
        assert kinds["timeline.json"] == "timeline"
        assert kinds["telemetry.json"] == "telemetry"
        assert kinds["notes.json"] == "skipped"

    def test_derived_views(self, results_dir):
        report = collect(results_dir)
        assert report.kernels() == ["bfs", "cc"]
        assert report.variants() == ["phloem-static", "serial"]
        assert _speedup_rows(report) == (
            ["kernel", "phloem-static", "serial"],
            [["bfs", "400 (2.50x)", "1000"], ["cc", "500 (1.60x)", "800"]],
        )
        assert _stall_rows(report) == (
            ["kernel", "variant", "issue", "backend", "queue", "other"],
            [["bfs", "phloem-static", "50.0%", "30.0%", "15.0%", "5.0%"]],
        )

    def test_per_kernel_tables_fold_over_inputs(self, tmp_path):
        """Two inputs per kernel (what QUICK ``figures fig9 --metrics-out``
        writes): a cell is the gmean speedup / mean normalised breakdown over
        both, not whichever input was read last."""

        def bd(issue, queue):
            return {"issue": issue, "backend": 0.0, "queue": queue, "other": 0.0}

        write_jsonl(
            [
                _run("bfs", "serial", 1000.0, 1.0, bd(1000.0, 0.0), input_name="g1"),
                _run("bfs", "phloem", 500.0, 2.0, bd(400.0, 100.0), input_name="g1"),
                _run("bfs", "serial", 4000.0, 1.0, bd(4000.0, 0.0), input_name="g2"),
                _run("bfs", "phloem", 500.0, 8.0, bd(250.0, 250.0), input_name="g2"),
            ],
            str(tmp_path / "fig9.jsonl"),
        )
        report = collect(str(tmp_path))
        assert _speedup_rows(report)[1] == [["bfs", "1000 (4.00x)", "5000 (1.00x)"]]
        # phloem: issue (0.4 + 0.0625) / 2, queue (0.1 + 0.0625) / 2 of serial.
        assert _stall_rows(report)[1] == [
            ["bfs", "phloem", "74.0%", "0.0%", "26.0%", "0.0%"],
            ["bfs", "serial", "100.0%", "0.0%", "0.0%", "0.0%"],
        ]
        assert "several inputs" in render_markdown(report)

    def test_cache_summary_counts_each_stream_once(self, results_dir):
        # Four records share one stream's per-request delta; summing
        # per-record would quadruple it.
        cache = collect(results_dir).cache_summary()
        assert cache["pipeline"]["hits"] == 3
        assert cache["pipeline"]["misses"] == 1
        assert cache["pipeline"]["hit_rate"] == 0.75

    def test_lint_rollup(self, results_dir):
        rollup = collect(results_dir).lint_rollup()
        assert rollup == {
            "targets": 1,
            "errors": 0,
            "warnings": 1,
            "codes": {"PHL010": 1},
        }

    def test_trajectory_from_history(self, results_dir):
        report = collect(results_dir)
        assert [e["git"] for e in report.trajectory] == ["abc1234", "def5678"]

    def test_v1_baseline_is_skipped_not_misread(self, tmp_path):
        v1 = dict(_perf_baseline(), version=1)
        (tmp_path / "perf.json").write_text(json.dumps(v1))
        report = collect(str(tmp_path))
        assert report.perf == [] and report.trajectory == []
        assert report.sources == [{"file": "perf.json", "kind": "skipped", "items": 0}]

    def test_extra_files_pulled_in_once(self, results_dir, tmp_path):
        baseline = str(tmp_path / "perf.json")  # already inside the walk
        report = collect(results_dir, extra_files=(baseline, "/nope/missing.json"))
        assert sum(1 for s in report.sources if s["kind"] == "perf") == 1

    def test_summary_is_schema_stamped(self, results_dir):
        summary = collect(results_dir).summary()
        assert summary["schema"] == REPORT_SCHEMA
        assert summary["version"] == REPORT_VERSION
        assert summary["kernels"] == ["bfs", "cc"]
        assert summary["sections"]["runs"] == 4
        assert summary["sections"]["telemetry"] == 1
        json.dumps(summary)

    def test_unreadable_json_is_skipped_not_fatal(self, tmp_path):
        (tmp_path / "broken.json").write_text("{not json")
        report = collect(str(tmp_path))
        assert report.sources == [{"file": "broken.json", "kind": "skipped", "items": 0}]

    def test_missing_directory_yields_empty_report(self):
        report = collect("/nope/not-here")
        assert report.runs == [] and report.sources == []


class TestMarkdown:
    def test_all_sections_present(self, results_dir):
        text = render_markdown(collect(results_dir))
        assert "## Per-kernel speedups" in text
        assert "## Cycle breakdown (Fig. 10 buckets)" in text
        assert "## Cache effectiveness" in text
        assert "## Lint status" in text
        assert "## Simulator performance (quick scale)" in text
        assert "## Perf trajectory (2 points)" in text
        assert "## Timeline" in text
        assert "## Service telemetry" in text

    def test_unrouted_requests_complete_the_request_count(self, tmp_path):
        """A saved daemon ``stats`` reply: the per-verb rows plus the
        unrouted line add up to ``counts.requests``."""
        telemetry = dict(_telemetry_snapshot(), unrouted=2)
        stats = {"counts": {"requests": 5, "completed": 2, "failed": 2, "rejected": 1},
                 "telemetry": telemetry}
        (tmp_path / "stats.json").write_text(json.dumps(stats))
        text = render_markdown(collect(str(tmp_path)))
        header = "| verb | requests |"
        lines = text.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith(header))
        routed = 0
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            routed += int(line.split("|")[2])
        unrouted = [line for line in lines if line.startswith("Unrouted requests: ")]
        assert len(unrouted) == 1
        assert routed + int(unrouted[0].split(": ")[1]) == stats["counts"]["requests"]

    def test_speedup_cells_and_kernels(self, results_dir):
        text = render_markdown(collect(results_dir))
        assert "| bfs |" in text and "| cc |" in text
        assert "(2.50x)" in text

    def test_stall_percentages_sum_to_hundred(self, results_dir):
        text = render_markdown(collect(results_dir))
        row = next(line for line in text.splitlines() if "50.0%" in line)
        assert "30.0%" in row and "15.0%" in row and "5.0%" in row

    def test_trajectory_has_sparkline(self, results_dir):
        text = render_markdown(collect(results_dir))
        assert "aggregate speedup (latest 2.00)" in text
        assert any(ch in text for ch in "▁▂▃▄▅▆▇█")

    def test_multi_engine_table_and_aggregate(self, tmp_path):
        (tmp_path / "perf.json").write_text(json.dumps(_multi_engine_perf()))
        text = render_markdown(collect(str(tmp_path)))
        # One wall column per engine, one speedup column per non-reference
        # engine, in canonical order.
        assert "| ref (s) | fast (s) | batch (s) | fast (x) | batch (x) |" in text
        assert "Aggregate: **4.00x** (ref 2.000s; fast 1.000s 2.00x; batch 0.500s 4.00x)." in text
        # The Mcyc/s column is the most advanced engine's throughput.
        assert "| bfs | 5000 | 2.000 | 1.000 | 0.500 | 2.00x | 4.00x | 0.01 |" in text

    def test_trajectory_sparks_grouped_per_engine(self, tmp_path):
        (tmp_path / "perf.json").write_text(json.dumps(_multi_engine_perf()))
        text = render_markdown(collect(str(tmp_path)))
        # Interleaved fastpath/batch history points split into one labeled
        # series per engine instead of one zig-zagging line.
        assert "aggregate speedup [fastpath] (latest 2.00)" in text
        assert "aggregate speedup [batch] (latest 4.00)" in text
        assert "| git | engine | scale |" in text
        assert "| bbb2222 | batch | quick |" in text

    def test_single_point_trajectory_omitted(self, tmp_path):
        (tmp_path / "perf.json").write_text(
            json.dumps(_perf_baseline(with_history=False))
        )
        text = render_markdown(collect(str(tmp_path)))
        assert "Perf trajectory" not in text

    def test_empty_report_renders(self):
        text = render_markdown(ExperimentReport())
        assert text.startswith("# experiment report")


class _PageCheck(HTMLParser):
    def __init__(self):
        super().__init__()
        self.tags = []
        self.text = []

    def handle_starttag(self, tag, attrs):
        self.tags.append(tag)

    def handle_data(self, data):
        self.text.append(data)


class TestHtml:
    def test_page_parses_and_references_every_kernel(self, results_dir):
        report = collect(results_dir)
        page = render_html(report)
        checker = _PageCheck()
        checker.feed(page)
        assert "html" in checker.tags and "table" in checker.tags
        body = "".join(checker.text)
        for kernel in report.kernels():
            assert kernel in body
        assert "Service telemetry" in body

    def test_html_says_what_markdown_says(self, results_dir):
        """Both renderers walk one block list: the skipped-file count, the
        per-code lint counts, the telemetry rejections and the ``-`` legend
        are in the page too."""
        body = _PageCheck()
        body.feed(render_html(collect(results_dir)))
        text = "".join(body.text)
        for said in (
            "(2 skipped)", "— PHL010 ×1", "Rejections: rate-limited ×1", "- = variant not run."
        ):
            assert said in text, said
            assert said.replace("- =", "`-` =") in render_markdown(collect(results_dir))

    def test_content_is_escaped(self):
        report = ExperimentReport(title="<script>alert(1)</script>")
        page = render_html(report)
        assert "<script>" not in page
        assert "&lt;script&gt;" in page

    def test_single_file_page(self, results_dir):
        page = render_html(collect(results_dir))
        assert "<style>" in page  # styling is inline, no external assets
        assert "src=" not in page and "href=" not in page
