"""Handler semantics: requests in, typed responses with captured output out."""

import json

import pytest

from repro import api

KERNEL = """
#pragma phloem
void k(const int* restrict a, const int* restrict b, int* restrict out, int n) {
  for (int i = 0; i < n; i++) {
    int v = a[i];
    out[i] = b[v];
  }
}
"""


def test_emit_summary_response():
    response = api.handle(api.CompileRequest(source=KERNEL, fmt="summary"))
    assert isinstance(response, api.CompileResponse)
    assert response.ok
    assert "stages" in response.output
    assert response.summary is not None and "RAs" in response.summary


def test_handle_accepts_wire_dicts():
    wire = api.CompileRequest(source=KERNEL, fmt="summary").to_wire()
    response = api.handle(wire)
    assert response.ok and "stages" in response.output


def test_handle_rejects_unknown_wire():
    with pytest.raises(api.ApiError):
        api.handle({"schema": "repro.api/request", "version": 1, "verb": "nope"})


def test_lint_clean_kernel():
    response = api.handle(api.LintRequest(source=KERNEL, file="k.c"))
    assert isinstance(response, api.LintResponse)
    assert response.ok
    assert response.errors == 0


BAD_KERNEL = """
#pragma phloem
void bad(int n) {
  #pragma phloem
  n = 1;
}
"""


def test_lint_bad_kernel_collects_diagnostics():
    response = api.handle(api.LintRequest(source=BAD_KERNEL, file="bad.c", json=True))
    assert response.exit_code != 0
    assert response.errors > 0
    assert response.records, "json lint must carry structured diagnostics"
    codes = {d.get("code") for d in response.records}
    assert any(code and code.startswith("PHL") for code in codes)


def test_lint_perf_advisories_flow_through():
    import json as _json

    response = api.handle(api.LintRequest(bench="bfs", perf=True, json=True))
    assert response.ok, "advisories never fail a lint"
    payload = _json.loads(response.output)
    assert payload["schema"] == "repro.diag/lint-report"
    assert payload["version"] == 1
    (entry,) = payload["reports"]
    codes = {d["code"] for d in entry["diagnostics"]}
    assert "PHL401" in codes
    # The structured record stream carries the same advisories.
    assert any(r.get("code") == "PHL401" for r in response.records)


def test_demo_reports_speedup():
    response = api.handle(api.RunRequest(bench="bfs", size=300))
    assert isinstance(response, api.RunResponse)
    assert response.ok
    assert response.speedup is not None and response.speedup > 0
    assert "serial" in response.output and "phloem" in response.output


SIZE_VERBS = {"demo": api.RunRequest, "trace": api.TraceRequest, "metrics": api.MetricsRequest}


@pytest.mark.parametrize("size", [0, -3])
@pytest.mark.parametrize("verb", sorted(SIZE_VERBS))
@pytest.mark.parametrize("bench", ["bfs", "cc"])
def test_size_below_one_is_a_bad_request(verb, size, bench, monkeypatch):
    """Refused before any input is built: an empty graph crashed ``bfs``'s
    root choice and ``cc``'s speedup division (``internal-error`` in the
    daemon)."""
    from repro.service.pool import execute_wire
    from repro.workloads import graphs

    def no_input(*args, **kwargs):
        raise AssertionError("the input was built")

    monkeypatch.setattr(graphs, "uniform_random", no_input)
    request = SIZE_VERBS[verb](bench=bench, size=size)
    with pytest.raises(api.ApiError, match="size must be at least 1, got %d" % size):
        api.handle(request)
    payload = execute_wire(request.to_wire())["payload"]
    assert payload["exit_code"] == 2
    assert payload["error"] == {
        "code": "bad-request",
        "message": "size must be at least 1, got %d" % size,
    }


def test_demo_records_name_the_engine_of_every_stage(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    response = api.handle(api.RunRequest(bench="bfs", size=200, seed=4))
    assert all(set(r["stage_engines"].values()) == {"batch"} for r in response.records)
    assert all("stage_engines" not in r["summary"] for r in response.records)
    assert "mixed engines" not in capsys.readouterr().err


def test_demo_logs_fallbacks_on_stderr_only(capsys, monkeypatch, tmp_path):
    from repro import cache
    from repro.pipette import batchpath

    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.delenv("REPRO_QUIET", raising=False)
    clean = api.handle(api.RunRequest(bench="bfs", size=200, seed=4))
    capsys.readouterr()
    # The simulator is patched below: an empty memo, or the demo is a hit.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    cache.reset()
    monkeypatch.setattr(batchpath, "_MAX_LINES", 10)  # every stage falls back
    mixed = api.handle(api.RunRequest(bench="bfs", size=200, seed=4))
    err = capsys.readouterr().err
    assert mixed.output == clean.output  # figure-facing stdout is engine-independent
    assert "demo bfs/phloem-static: mixed engines: r0.s0." in err
    assert "fell back (generated stage body too large)" in err
    fallen = [r for r in mixed.records if r["variant"] == "phloem-static"][0]
    assert set(fallen["stage_engines"].values()) == {"reference"}
    # A hit replays the stored fallbacks: same advisory, same records.
    again = api.handle(api.RunRequest(bench="bfs", size=200, seed=4))
    assert again.cache["baseline"] == {"hits": 4, "misses": 0}
    assert capsys.readouterr().err == err and again.records == mixed.records


def test_metrics_records_match_stdout_jsonl():
    response = api.handle(api.MetricsRequest(bench="bfs", size=300, quiet=True))
    assert isinstance(response, api.MetricsResponse)
    assert response.ok
    lines = [json.loads(line) for line in response.output.splitlines() if line.strip()]
    assert lines == response.records
    assert {r["variant"] for r in response.records} >= {"serial", "phloem-static"}


def test_metrics_cache_delta_is_per_request(tmp_path, monkeypatch):
    from repro import cache

    # Cold start regardless of what earlier tests compiled in-process.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    cache.reset()
    cold = api.handle(api.MetricsRequest(bench="cc", size=300, seed=7, quiet=True))
    warm = api.handle(api.MetricsRequest(bench="cc", size=300, seed=7, quiet=True))
    assert cold.cache is not None and warm.cache is not None
    assert cold.cache["pipeline"]["misses"] >= 1
    assert warm.cache["pipeline"]["hits"] >= 1
    assert warm.cache["pipeline"]["misses"] == 0
    # Warm-vs-warm runs are deterministic and byte-identical.
    rewarm = api.handle(api.MetricsRequest(bench="cc", size=300, seed=7, quiet=True))
    assert rewarm.output == warm.output


def test_output_is_captured_not_printed(capsys):
    api.handle(api.RunRequest(bench="bfs", size=300))
    assert capsys.readouterr().out == ""


class TestReport:
    def _results_dir(self, tmp_path):
        from repro.obs import run_record, write_jsonl

        write_jsonl(
            [
                run_record("bfs", "serial", "tiny", 1000.0, ok=True),
                run_record("bfs", "phloem-static", "tiny", 400.0, ok=True, speedup=2.5),
            ],
            str(tmp_path / "runs.jsonl"),
        )
        return str(tmp_path)

    def test_report_markdown_is_the_stdout_payload(self, tmp_path):
        response = api.handle(
            api.ReportRequest(results_dir=self._results_dir(tmp_path), baseline=None)
        )
        assert isinstance(response, api.ReportResponse)
        assert response.ok
        assert "## Per-kernel speedups" in response.output
        assert "bfs" in response.output
        assert response.summary["kernels"] == ["bfs"]
        (record,) = response.records
        assert record == response.summary

    def test_report_writes_files_instead_of_stdout(self, tmp_path):
        out = tmp_path / "report.md"
        html_out = tmp_path / "report.html"
        response = api.handle(
            api.ReportRequest(
                results_dir=self._results_dir(tmp_path),
                baseline=None,
                out=str(out),
                html_out=str(html_out),
                quiet=True,
            )
        )
        assert response.ok
        assert response.output == ""
        assert "## Per-kernel speedups" in out.read_text()
        assert html_out.read_text().startswith("<!DOCTYPE html>")

    def test_report_missing_directory_exits_2(self, tmp_path):
        response = api.handle(
            api.ReportRequest(results_dir=str(tmp_path / "nope"), baseline=None)
        )
        assert response.exit_code == 2
        assert "not found" in response.output
