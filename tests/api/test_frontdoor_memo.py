"""The front door's compile memo: ``emit``/``lint`` answer from a source key.

A hit must be indistinguishable from a miss except in ``Response.cache``:
same bytes first call, second call and from a fresh process on the warm
directory; one ``pipeline`` miss then one hit per request; ``--verify-each``
never answered from the memo; errors never stored.
"""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro import api, cache
from repro.errors import CompileError, ParseError

KERNEL = """
#pragma phloem
void k(const int* restrict a, const int* restrict b, int* restrict out, int n) {
  for (int i = 0; i < n; i++) {
    int v = a[i];
    out[i] = b[v];
  }
}
"""

#: PHL303: compiles, with a warning.
WARNING_KERNEL = """
#pragma phloem
#pragma replicate 2
void k(int n, const int* restrict idx, const int* restrict w, int* restrict acc) {
  for (int i = 0; i < n; i++) {
    int j = idx[i];
    acc[j] = acc[j] - w[i];
  }
}
"""

PARSE_ERROR = "void broken(int n { }"

#: PHL003: parses, fails lowering.
LOWERING_ERROR = """
#pragma phloem
void bad(int n) {
  #pragma phloem
  n = 1;
}
"""

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


#: A fresh disk store and empty in-process layers per test.
pytestmark = pytest.mark.usefixtures("cold_store")


def _cli(tmp_path, *argv):
    """``python -m repro argv`` in a fresh interpreter on the test's store."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro"] + list(argv),
        capture_output=True, text=True, env=env, timeout=120, cwd=str(tmp_path),
    )


def _pipeline(response):
    return response.cache["pipeline"]


@pytest.mark.parametrize("passes", [None, "recompute,cv"])
@pytest.mark.parametrize("fmt", ["c", "ir", "summary", "diagram"])
def test_emit_hit_is_byte_identical_to_miss(tmp_path, fmt, passes):
    request = api.CompileRequest(source=KERNEL, fmt=fmt, passes=passes)
    miss = api.handle(request)
    hit = api.handle(request)
    assert _pipeline(miss) == {"hits": 0, "misses": 1}
    assert _pipeline(hit) == {"hits": 1, "misses": 0}
    assert hit.output == miss.output and hit.summary == miss.summary
    cache.reset()
    from_disk = api.handle(request)
    assert _pipeline(from_disk) == {"hits": 1, "misses": 0}
    assert from_disk.output == miss.output

    (tmp_path / "k.c").write_text(KERNEL)
    argv = ["emit", "k.c", "--format", fmt] + (["--passes", passes] if passes else [])
    fresh = _cli(tmp_path, *argv)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout == miss.output


def test_all_formats_share_one_compile():
    formats = ("summary", "c", "ir", "diagram")
    responses = [api.handle(api.CompileRequest(source=KERNEL, fmt=fmt)) for fmt in formats]
    assert [_pipeline(r)["misses"] for r in responses] == [1, 0, 0, 0]


def test_whitespace_variant_hits_by_ir_fingerprint():
    api.handle(api.CompileRequest(source=KERNEL, fmt="summary"))
    variant = api.handle(api.CompileRequest(source="// again\n" + KERNEL, fmt="summary"))
    assert _pipeline(variant) == {"hits": 1, "misses": 0}


@pytest.mark.parametrize(
    "source, flags, exit_code",
    [
        (KERNEL, {}, 0),
        (KERNEL, {"json": True}, 0),
        (KERNEL, {"perf": True}, 0),
        (WARNING_KERNEL, {}, 0),
        (WARNING_KERNEL, {"json": True, "perf": True}, 0),
        (PARSE_ERROR, {}, 1),
        (PARSE_ERROR, {"json": True}, 1),
        (LOWERING_ERROR, {}, 1),
    ],
)
def test_lint_hit_is_byte_identical_to_miss(tmp_path, source, flags, exit_code):
    path = tmp_path / "k.c"
    path.write_text(source)
    request = api.LintRequest(source=source, file="k.c", **flags)
    miss = api.handle(request)
    hit = api.handle(request)
    assert miss.exit_code == exit_code
    assert _pipeline(miss) == {"hits": 0, "misses": 1}
    assert _pipeline(hit) == {"hits": 1, "misses": 0}
    assert (hit.output, hit.records, hit.errors, hit.warnings) == (
        miss.output, miss.records, miss.errors, miss.warnings
    )
    cache.reset()
    assert api.handle(request).output == miss.output

    fresh = _cli(tmp_path, "lint", "k.c", *["--" + flag for flag in flags])
    assert fresh.returncode == exit_code, fresh.stderr
    assert fresh.stdout == miss.output


def test_lint_file_label_and_perf_are_part_of_the_key():
    api.handle(api.LintRequest(source=PARSE_ERROR, file="a.c"))
    other = api.handle(api.LintRequest(source=PARSE_ERROR, file="b.c"))
    assert _pipeline(other) == {"hits": 0, "misses": 1}
    assert "b.c" in other.output and "a.c" not in other.output
    api.handle(api.LintRequest(bench="bfs"))
    perf = api.handle(api.LintRequest(bench="bfs", perf=True))
    assert _pipeline(perf) == {"hits": 0, "misses": 1}
    assert "PHL401" in perf.output


def test_verify_each_never_answers_from_the_memo():
    for _ in range(2):
        response = api.handle(api.LintRequest(bench="bfs", verify_each=True))
        assert response.ok
    for _ in range(2):
        response = api.handle(api.CompileRequest(source=KERNEL, verify_each=True))
        assert response.ok
    assert cache.stats()["pipeline"] == {"hits": 0, "misses": 0}
    # ... and leaves nothing behind for an unverified request to hit.
    assert _pipeline(api.handle(api.CompileRequest(source=KERNEL))) == {"hits": 0, "misses": 1}


@pytest.mark.parametrize(
    "request_, error",
    [
        (api.CompileRequest(source=PARSE_ERROR), ParseError),
        (api.CompileRequest(source=KERNEL, stages=0), CompileError),
        (api.CompileRequest(source=KERNEL, passes="bogus"), CompileError),
        (api.LintRequest(source=KERNEL, file="k.c", stages=0), CompileError),
    ],
)
def test_errors_propagate_and_are_never_stored(tmp_path, request_, error):
    for _ in range(2):
        with pytest.raises(error):
            api.handle(request_)
    assert cache.stats()["pipeline"]["hits"] == 0
    stored = [
        name for _, _, names in os.walk(str(tmp_path / "cache")) for name in names
        if name.endswith(".pkl")
    ]
    assert stored == []


def test_no_cache_env_still_memoizes_in_process_only(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    request = api.CompileRequest(source=KERNEL, fmt="summary")
    first = api.handle(request)
    assert _pipeline(api.handle(request)) == {"hits": 1, "misses": 0}
    cache.reset()
    again = api.handle(request)
    assert _pipeline(again) == {"hits": 0, "misses": 1}
    assert again.output == first.output


def test_daemon_round_trip_reports_miss_then_hit(tmp_path):
    from tests.service.test_daemon import serving

    request = api.CompileRequest(source=KERNEL, fmt="summary")
    with serving(tmp_path) as client:
        cold = client.submit(request)
        warm = client.submit(request)
    assert _pipeline(cold) == {"hits": 0, "misses": 1}
    assert _pipeline(warm) == {"hits": 1, "misses": 0}
    assert warm.output == cold.output


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork start method"
)
def test_two_processes_emitting_one_new_source_share_one_miss(tmp_path):
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(2)
    request = api.CompileRequest(source=KERNEL, fmt="summary")

    def child(index):
        cache.reset()  # fresh counters; nothing inherited over fork
        barrier.wait()
        response = api.handle(request)
        (tmp_path / ("%d.json" % index)).write_text(
            json.dumps({"cache": _pipeline(response), "output": response.output})
        )

    procs = [ctx.Process(target=child, args=(index,)) for index in range(2)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(60)
        assert proc.exitcode == 0
    results = [json.loads((tmp_path / ("%d.json" % i)).read_text()) for i in range(2)]
    assert sorted(r["cache"]["misses"] for r in results) == [0, 1], results
    assert sorted(r["cache"]["hits"] for r in results) == [0, 1], results
    assert results[0]["output"] == results[1]["output"]
