"""CLI surface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

KERNEL = """
#pragma phloem
void k(const int* restrict a, const int* restrict b, int* restrict out, int n) {
  for (int i = 0; i < n; i++) {
    int v = a[i];
    out[i] = b[v];
  }
}
"""


def _assert_no_toolchain_imports(module):
    """No import statement anywhere in ``module`` names a toolchain package."""
    import ast
    import inspect

    banned = ("core", "frontend", "ir", "pipette", "analysis", "runtime")
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            assert root not in banned, "%s imports repro.%s" % (module.__name__, node.module)
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                assert root not in banned, "%s imports %s" % (module.__name__, alias.name)


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "k.c"
    path.write_text(KERNEL)
    return str(path)


def test_emit_summary(kernel_file, capsys):
    assert main(["emit", kernel_file, "--format", "summary"]) == 0
    out = capsys.readouterr().out
    assert "stages" in out and "RAs" in out


def test_emit_pseudo_c(kernel_file, capsys):
    assert main(["emit", kernel_file]) == 0
    out = capsys.readouterr().out
    assert "setup_reference_accelerator" in out


def test_emit_ir(kernel_file, capsys):
    assert main(["emit", kernel_file, "--format", "ir"]) == 0
    out = capsys.readouterr().out
    assert "pipeline k" in out


def test_emit_pass_subset(kernel_file, capsys):
    assert main(["emit", kernel_file, "--passes", "recompute,cv", "--format", "summary"]) == 0
    out = capsys.readouterr().out
    assert "0 RAs" in out


def test_demo_bfs(capsys):
    assert main(["demo", "bfs", "--size", "300"]) == 0
    out = capsys.readouterr().out
    assert "serial" in out and "phloem" in out
    assert "False" not in out


@pytest.mark.parametrize("verb", ["demo", "trace", "metrics"])
def test_size_below_one_exits_2_with_one_line(verb, capsys):
    assert main([verb, "bfs", "--size", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "repro %s: error: size must be at least 1, got 0\n" % verb


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_figures_rejects_unknown(capsys):
    assert main(["figures", "fig99"]) == 2


def test_demo_spmm(capsys):
    assert main(["demo", "spmm", "--size", "2000"]) == 0
    out = capsys.readouterr().out
    assert "serial" in out and "manual" in out
    assert "False" not in out


def test_figures_jobs_flag_parses():
    args = build_parser().parse_args(["figures", "fig6", "--jobs", "4"])
    assert args.jobs == 4 and args.names == ["fig6"]
    assert build_parser().parse_args(["figures"]).jobs is None


def test_figures_fig6_smoke(tmp_path):
    """End-to-end: QUICK fig6 through the parallel harness with a cold cache."""
    env = dict(os.environ)
    env.update(
        REPRO_QUICK="1",
        REPRO_CACHE_DIR=str(tmp_path),
        PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"),
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "figures", "fig6", "--jobs", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Fig. 6" in proc.stdout
    assert "cache" in proc.stderr  # telemetry lands on stderr, not stdout


# ---------------------------------------------------------------------------
# Observability surface: trace / metrics / --quiet


import json

import repro.obs as obs


@pytest.fixture(autouse=True)
def _reset_quiet():
    """--quiet flags set a process-global; keep tests independent."""
    yield
    obs.set_quiet(None)


def test_trace_writes_valid_chrome_trace_and_metrics(tmp_path, capsys):
    trace_path = tmp_path / "t.json"
    metrics_path = tmp_path / "m.jsonl"
    rc = main(
        [
            "trace", "bfs", "--size", "300",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
            "--profile-passes",
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "timeline over" in captured.out
    assert "bottleneck stage by window:" in captured.out
    assert "decouple" in captured.out  # the pass table
    assert "perfetto" in captured.err  # telemetry, silenceable

    trace = json.loads(trace_path.read_text())
    assert obs.validate_chrome_trace(trace) == []
    assert trace["otherData"]["bench"] == "bfs"

    records = obs.read_jsonl(str(metrics_path))
    assert [r["variant"] for r in records] == ["serial", "phloem-static"]
    assert all(r["schema"] == obs.RECORD_SCHEMA for r in records)
    assert "passes" in records[1]


def test_trace_quiet_silences_stderr(tmp_path, capsys):
    rc = main(["trace", "bfs", "--size", "300", "--quiet",
               "--trace-out", str(tmp_path / "t.json")])
    assert rc == 0
    captured = capsys.readouterr()
    assert "timeline over" in captured.out  # results stay on stdout
    assert captured.err == ""


def test_metrics_emits_jsonl_on_stdout(capsys):
    rc = main(["metrics", "bfs", "--size", "300", "--quiet"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert {r["variant"] for r in records} == {
        "serial", "data-parallel", "phloem-static", "manual"
    }
    assert all(r["ok"] for r in records)
    assert all("summary" in r for r in records)


def test_report_aggregates_metrics_and_lint(tmp_path, capsys):
    """metrics + lint into a directory, then ``repro report`` over it."""
    results = tmp_path / "results"
    results.mkdir()
    assert main(["metrics", "bfs", "--size", "300", "--quiet",
                 "--metrics-out", str(results / "runs.jsonl")]) == 0
    capsys.readouterr()
    assert main(["lint", "--bench", "bfs", "--json"]) == 0
    (results / "lint.json").write_text(capsys.readouterr().out)

    html_out = tmp_path / "report.html"
    rc = main(["report", str(results), "--baseline", "", "--quiet",
               "--html-out", str(html_out)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("# experiment report")
    assert "## Per-kernel speedups" in out
    assert "## Lint status" in out
    assert "bfs" in out and "phloem-static" in out
    assert html_out.read_text().startswith("<!DOCTYPE html>")


def test_report_missing_directory_exits_2(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope"), "--baseline", ""]) == 2
    assert "not found" in capsys.readouterr().out


def test_figures_metrics_out_from_suites(tmp_path, capsys, monkeypatch):
    """--metrics-out captures the RunRecords of the figures a run computed."""
    from repro.bench import experiments
    from repro.bench.harness import adapter_for, run_suite
    from repro.pipette.config import SCALED_1CORE
    from repro.workloads.datasets import Input
    from repro.workloads.graphs import uniform_random

    def tiny_suites():
        item = Input("tiny", "synthetic", lambda: uniform_random(200, 4, seed=2))
        return {
            "bfs": run_suite(
                adapter_for("bfs"), [item], [], config=SCALED_1CORE,
                variants=("serial", "phloem-static"),
            )
        }

    # Figs. 9-11 re-slice one shared source: it must run once for both.
    calls = []

    def source(jobs=None):
        calls.append(jobs)
        return tiny_suites()

    for name in ("fig9", "fig10"):
        figure = experiments.FIGURES[name]._replace(source=source)
        monkeypatch.setitem(experiments.FIGURES, name, figure)
    path = tmp_path / "runs.jsonl"
    rc = main(["figures", "fig10", "fig9", "--quiet", "--metrics-out", str(path)])
    assert rc == 0 and calls == [1]
    captured = capsys.readouterr()
    assert captured.out.index("Fig. 10") < captured.out.index("Fig. 9")
    assert captured.err == ""  # --quiet silences the telemetry
    records = obs.read_jsonl(str(path))
    assert [(r["bench"], r["variant"]) for r in records] == [
        ("bfs", "phloem-static"), ("bfs", "serial")
    ]
    assert all(set(r["cache"]) == {"pipeline", "baseline", "search"} for r in records)


def test_figures_default_is_the_seven_paper_figures(monkeypatch, capsys):
    """No names = Figs. 6 and 9-14 in the order the verb always printed them;
    the extension entries (gardenia, abl) run only when named."""
    from repro.bench import experiments

    assert list(experiments.FIGURES) == [
        "fig6", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "gardenia", "abl"
    ]
    stub = {
        name: experiments.Figure(lambda: [], lambda data, name=name: "<%s>" % name, None)
        for name in experiments.FIGURES
    }
    monkeypatch.setattr(experiments, "FIGURES", stub)
    assert main(["figures", "--quiet"]) == 0
    assert capsys.readouterr().out.split() == [
        "<fig10>", "<fig11>", "<fig12>", "<fig13>", "<fig14>", "<fig6>", "<fig9>"
    ]


BAD_KERNEL = """
#pragma phloem
void bad(int n) {
  #pragma phloem
  n = 1;
}
"""


class TestLint:
    def test_lint_clean_file(self, kernel_file, capsys):
        assert main(["lint", kernel_file]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_lint_bad_file_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.c"
        path.write_text(BAD_KERNEL)
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "PHL003" in out

    def test_lint_all_benchmarks_clean(self, capsys):
        assert main(["lint", "--bench", "all"]) == 0
        out = capsys.readouterr().out
        assert "bfs" in out and "spmm" in out
        assert "PHL" not in out

    def test_lint_json_shape(self, kernel_file, capsys):
        assert main(["lint", kernel_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.diag/lint-report"
        assert payload["version"] == 1
        (entry,) = payload["reports"]
        assert entry["errors"] == 0 and entry["warnings"] == 0
        assert entry["diagnostics"] == []
        assert entry["target"].endswith("k.c")

    def test_lint_json_carries_code_and_span(self, tmp_path, capsys):
        path = tmp_path / "bad.c"
        path.write_text(BAD_KERNEL)
        assert main(["lint", str(path), "--json"]) == 1
        (entry,) = json.loads(capsys.readouterr().out)["reports"]
        (d,) = entry["diagnostics"]
        assert d["code"] == "PHL003"
        assert d["span"]["line"] == 4

    def test_lint_perf_advisories(self, capsys):
        # --perf adds the PHL4xx performance advisories; they are
        # advisory-only, so the exit code stays 0.
        assert main(["lint", "--bench", "bfs", "--perf"]) == 0
        out = capsys.readouterr().out
        assert "PHL401" in out
        assert main(["lint", "--bench", "bfs", "--perf", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload["reports"]
        codes = set(d["code"] for d in entry["diagnostics"])
        assert "PHL401" in codes
        assert all(c.startswith("PHL4") for c in codes)

    def test_lint_verify_each_benchmarks(self, capsys):
        assert main(["lint", "--bench", "bfs", "--verify-each"]) == 0

    def test_lint_requires_a_target(self, capsys):
        assert main(["lint"]) == 2

    def test_lint_unknown_bench_rejected(self, capsys):
        assert main(["lint", "--bench", "nope"]) == 2


class TestApiLayer:
    """The CLI is a thin frontend over repro.api: argv -> request -> handle."""

    def test_cli_has_no_toolchain_imports(self):
        """Verb logic lives in repro.api.handlers; cli.py only builds requests."""
        import repro.cli

        _assert_no_toolchain_imports(repro.cli)

    def test_requests_module_has_no_toolchain_imports(self):
        """The verb declarations stay importable without the toolchain: choice
        lists that need it are callables resolved when a parser is built."""
        import repro.api.requests

        _assert_no_toolchain_imports(repro.api.requests)
        probe = (
            "import sys; import repro.api.requests; "
            "print([m for m in sys.modules if m.startswith('repro.workloads')])"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"

    def test_argv_builds_the_expected_request_payload(self, kernel_file):
        """Per verb: one argv setting every flag and one bare argv, against
        literal wire payloads (so a default cannot drift unnoticed)."""
        from repro import api

        synthetic = {"bench": "bfs", "size": 4000, "seed": 1, "stages": 4}
        table = {
            "emit": [
                (
                    ["emit", kernel_file, "--name", "k", "--stages", "3", "--passes", "cv",
                     "--format", "ir", "--verify-each"],
                    {"source": KERNEL, "name": "k", "stages": 3, "passes": "cv", "fmt": "ir",
                     "verify_each": True},
                ),
                (
                    ["emit", kernel_file],
                    {"source": KERNEL, "name": None, "stages": 4, "passes": None, "fmt": "c",
                     "verify_each": False},
                ),
            ],
            "lint": [
                (
                    ["lint", kernel_file, "--name", "k", "--bench", "all", "--stages", "2",
                     "--passes", "cv", "--verify-each", "--json", "--perf"],
                    {"source": KERNEL, "file": kernel_file, "name": "k", "bench": "all",
                     "stages": 2, "passes": "cv", "verify_each": True, "json": True,
                     "perf": True},
                ),
                (
                    ["lint"],
                    {"source": None, "file": None, "name": None, "bench": None, "stages": 4,
                     "passes": None, "verify_each": False, "json": False, "perf": False},
                ),
            ],
            "demo": [
                (
                    ["demo", "cc", "--size", "300", "--seed", "7", "--stages", "2"],
                    {"bench": "cc", "size": 300, "seed": 7, "stages": 2},
                ),
                (["demo", "bfs"], synthetic),
            ],
            "search": [
                (["search", "cc", "--prune-static"], {"bench": "cc", "prune_static": True}),
                (["search", "cc"], {"bench": "cc", "prune_static": False}),
            ],
            "figures": [
                (
                    ["figures", "fig6", "gardenia", "--jobs", "2", "--quiet", "--metrics-out",
                     "m.jsonl"],
                    {"names": ("fig6", "gardenia"), "jobs": 2, "quiet": True,
                     "metrics_out": "m.jsonl"},
                ),
                (
                    ["figures"],
                    {"names": (), "jobs": None, "quiet": False, "metrics_out": None},
                ),
            ],
            "trace": [
                (
                    ["trace", "prd", "--size", "300", "--seed", "7", "--stages", "2",
                     "--trace-out", "t.json", "--metrics-out", "m.jsonl", "--profile-passes",
                     "--quiet"],
                    {"bench": "prd", "size": 300, "seed": 7, "stages": 2, "trace_out": "t.json",
                     "metrics_out": "m.jsonl", "profile_passes": True, "quiet": True},
                ),
                (
                    ["trace", "bfs"],
                    dict(synthetic, trace_out=None, metrics_out=None, profile_passes=False,
                         quiet=False),
                ),
            ],
            "bench-perf": [
                (
                    ["bench", "perf", "bfs", "cc", "--full", "--engine", "all", "--repeats", "3",
                     "--jobs", "2", "--baseline", "b.json", "--check-baseline",
                     "--update-baseline", "--threshold", "0.5", "--strict", "--json",
                     "--metrics-out", "m.jsonl", "--quiet"],
                    {"benches": ("bfs", "cc"), "scale": "full", "engine": "all", "repeats": 3,
                     "jobs": 2, "baseline": "b.json", "check_baseline": True,
                     "update_baseline": True, "threshold": 0.5, "strict": True, "json": True,
                     "metrics_out": "m.jsonl", "quiet": True},
                ),
                (
                    ["bench", "perf"],
                    {"benches": (), "scale": "quick", "engine": None, "repeats": 2, "jobs": None,
                     "baseline": "BENCH_pipette.json", "check_baseline": False,
                     "update_baseline": False, "threshold": 0.25, "strict": False,
                     "json": False, "metrics_out": None, "quiet": False},
                ),
            ],
            "metrics": [
                (
                    ["metrics", "radii", "--size", "300", "--seed", "7", "--stages", "2",
                     "--jobs", "2", "--metrics-out", "m.jsonl", "--profile-passes", "--quiet"],
                    {"bench": "radii", "size": 300, "seed": 7, "stages": 2, "jobs": 2,
                     "metrics_out": "m.jsonl", "profile_passes": True, "quiet": True},
                ),
                (
                    ["metrics", "bfs"],
                    dict(synthetic, jobs=None, metrics_out=None, profile_passes=False,
                         quiet=False),
                ),
            ],
            "report": [
                (
                    ["report", "results", "--title", "run 1", "--baseline", "b.json", "--out",
                     "r.md", "--html-out", "r.html", "--quiet"],
                    {"results_dir": "results", "title": "run 1", "baseline": "b.json",
                     "out": "r.md", "html_out": "r.html", "quiet": True},
                ),
                (
                    ["report", "results"],
                    {"results_dir": "results", "title": None, "baseline": "BENCH_pipette.json",
                     "out": None, "html_out": None, "quiet": False},
                ),
            ],
        }
        assert set(table) == set(api.REQUEST_TYPES)
        parser = build_parser()
        for verb, cases in table.items():
            for argv, payload in cases:
                args = parser.parse_args(argv)
                request = api.REQUEST_TYPES[args.verb].from_args(args)
                assert type(request) is api.REQUEST_TYPES[verb], argv
                assert request.to_wire()["payload"] == payload, argv
        # --quick is the default scale and wins over --full.
        args = parser.parse_args(["bench", "perf", "--full", "--quick"])
        assert api.BenchPerfRequest.from_args(args).scale == "quick"

    def test_one_declaration_adds_a_verb(self, monkeypatch, capsys):
        """A request class plus a runner is a whole verb: parser, argv ->
        request, wire round trip and execution, with no other table edited."""
        from repro import api
        from repro.api import handlers, requests

        # Defining the classes below registers them; undo that afterwards.
        monkeypatch.delitem(requests.REQUEST_TYPES, "echo", raising=False)
        monkeypatch.delitem(requests.RESPONSE_TYPES, "EchoResponse", raising=False)
        monkeypatch.delitem(handlers._RUNNERS, "echo", raising=False)

        class EchoResponse(api.Response):
            """``echo`` result."""

            shouted: bool = False

        class EchoRequest(api.Request):
            """``repro echo``: print words back."""

            VERB = "echo"
            HELP = "print words back"
            RESPONSE = EchoResponse

            words: tuple = requests.arg((), "what to say", positional=True, nargs="*")
            times: int = requests.arg(1, "repetitions")
            mood: str = requests.arg(None, choices=lambda: ("calm", "loud"))
            shout: bool = requests.arg(False)

        @handlers.runner(EchoRequest)
        def _run_echo(req):
            text = " ".join(req.words) * req.times
            print(text.upper() if req.shout else text)
            return 0, [], {"shouted": req.shout}

        args = build_parser().parse_args(["echo", "a", "b", "--times", "2", "--shout"])
        request = EchoRequest.from_args(args)
        assert request == EchoRequest(words=("a", "b"), times=2, shout=True)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["echo", "--mood", "sad"])
        capsys.readouterr()

        rebuilt = api.Request.from_wire(json.loads(json.dumps(request.to_wire())))
        assert rebuilt.to_wire() == request.to_wire()
        with pytest.raises(api.ApiError, match="mood must be one of calm, loud"):
            api.Request.from_wire(dict(request.to_wire(), payload={"mood": "sad"}))

        response = api.handle(request)
        assert type(response) is EchoResponse and response.shouted
        assert response.output == "A BA B\n"
        assert api.Response.from_wire(response.to_wire()) == response
        assert main(["echo", "hi"]) == 0
        assert capsys.readouterr().out == "hi\n"

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--socket", "/tmp/x.sock"])
        assert args.verb == "serve"
        assert args.workers == 2 and args.quota == 4
        assert args.rate == 10.0 and args.burst == 20.0

    def test_submit_parser_captures_verb_argv(self):
        args = build_parser().parse_args(
            ["submit", "--socket", "/tmp/x.sock", "--stream", "metrics", "bfs", "--size", "300"]
        )
        assert args.verb == "submit"
        assert args.stream
        assert args.argv == ["metrics", "bfs", "--size", "300"]

    def test_submit_without_verb_or_control_is_an_error(self, capsys):
        assert main(["submit", "--socket", "/tmp/never-bound.sock"]) == 2
        assert "give a verb" in capsys.readouterr().out

    def test_submit_rejects_non_submittable_verbs(self, capsys):
        assert main(["submit", "--socket", "/tmp/never-bound.sock", "serve"]) == 2
        assert "only in-process" in capsys.readouterr().out

    def test_submit_unreachable_daemon_is_a_clean_error(self, tmp_path, capsys):
        assert main(["submit", "--socket", str(tmp_path / "nope.sock"), "demo", "bfs"]) == 1
        assert "cannot reach daemon" in capsys.readouterr().err
