"""The daemon end to end: an in-process instance over a real unix socket."""

import asyncio
import contextlib
import json
import multiprocessing
import os
import socket
import threading
import time

import pytest

from repro import api, cache
from repro.client import ServiceClient, ServiceError
from repro.service import REJECTED_EXIT_CODE, Daemon, RequestPool, protocol
from repro.service.ratelimit import QUOTA_EXCEEDED, RATE_LIMITED

KERNEL = """
#pragma phloem
void k(const int* restrict a, const int* restrict b, int* restrict out, int n) {
  for (int i = 0; i < n; i++) {
    int v = a[i];
    out[i] = b[v];
  }
}
"""


@contextlib.contextmanager
def serving(tmp_path, workers=0, **kwargs):
    """A live daemon (inline executor unless ``workers``) plus a connected
    client; ``client.daemon`` is the instance, for tests that reach inside."""
    sock = str(tmp_path / "serve.sock")
    daemon = Daemon(socket_path=sock, workers=workers, **kwargs)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(daemon.serve(ready=ready)), daemon=True
    )
    thread.start()
    assert ready.wait(10), "daemon never bound its socket"
    client = ServiceClient(socket_path=sock, client_id="test", timeout=30.0)
    client.daemon = daemon
    client.wait_ready(timeout=10)
    try:
        yield client
    finally:
        with contextlib.suppress(ServiceError):
            client.shutdown()
        thread.join(10)
        assert not thread.is_alive(), "daemon did not shut down"


def test_ping_identifies_daemon(tmp_path):
    with serving(tmp_path) as client:
        payload = client.ping()
        assert payload["ok"] and payload["inline"]


def test_submit_matches_one_shot_output(tmp_path):
    request = api.MetricsRequest(bench="bfs", size=300, quiet=True)
    # Warm the caches, then capture the one-shot warm output.
    api.handle(request)
    warm = api.handle(request)
    with serving(tmp_path) as client:
        response = client.submit(request)
        assert response.ok
        assert response.output == warm.output
        assert type(response) is api.MetricsResponse


def test_submit_reports_shared_cache_hits(tmp_path, monkeypatch):
    from repro import cache

    # A genuinely cold start: fresh store, empty in-process memo (earlier
    # tests in this process may have compiled the same pipeline).
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    cache.reset()
    request = api.RunRequest(bench="cc", size=300, seed=11)
    with serving(tmp_path) as client:
        cold = client.submit(request)
        warm = client.submit(request)
    assert cold.ok and warm.ok
    assert cold.cache["pipeline"]["misses"] >= 1
    assert warm.cache["pipeline"]["hits"] >= 1
    assert warm.cache["pipeline"]["misses"] == 0
    assert warm.output == cold.output


def test_records_stream_before_final_response(tmp_path):
    request = api.MetricsRequest(bench="bfs", size=300, quiet=True)
    streamed = []
    with serving(tmp_path) as client:
        response = client.submit(request, on_record=streamed.append)
    assert response.ok and response.records
    assert streamed == response.records
    expected = [json.loads(line) for line in response.output.splitlines() if line.strip()]
    assert streamed == expected


def test_third_request_over_budget_is_rejected(tmp_path):
    request = api.CompileRequest(source=KERNEL, fmt="summary")
    with serving(tmp_path, rate=1e-9, burst=2.0) as client:
        assert client.submit(request).ok
        assert client.submit(request).ok
        rejected = client.submit(request)
        # A different identity still has its own untouched budget.
        other = ServiceClient(socket_path=client.socket_path, client_id="other")
        assert other.submit(request).ok
    assert not rejected.ok
    assert rejected.exit_code == REJECTED_EXIT_CODE
    assert rejected.error["code"] == RATE_LIMITED


def test_unsupported_verb_rejected(tmp_path):
    class BogusRequest:
        def to_wire(self):
            return {
                "schema": "repro.api/request",
                "version": 1,
                "verb": "frobnicate",
                "payload": {},
            }

    with serving(tmp_path) as client:
        response = client.submit(BogusRequest())
    assert response.exit_code == 2
    assert response.error["code"] == "unsupported-verb"


def test_toolchain_error_becomes_structured_response(tmp_path):
    request = api.CompileRequest(source="int broken(", fmt="summary")
    with serving(tmp_path) as client:
        response = client.submit(request)
    assert not response.ok
    assert response.error["code"] in ("toolchain-error", "internal-error")


@pytest.mark.parametrize(
    "payload, field",
    [({"stages": "4"}, "stages"), ({"fmt": "nope"}, "fmt")],
)
def test_mistyped_payload_answered_with_bad_request(tmp_path, payload, field):
    class MistypedRequest:
        def to_wire(self):
            return dict(api.CompileRequest(source=KERNEL).to_wire(), payload=payload)

    with serving(tmp_path) as client:
        response = client.submit(MistypedRequest())
        assert client.ping()["ok"]  # and the daemon keeps serving
    assert response.exit_code == 2
    assert response.error["code"] == "bad-request"
    assert field in response.error["message"]


def test_garbage_line_answered_with_bad_request(tmp_path):
    with serving(tmp_path) as client:
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(10)
        raw.connect(client.socket_path)
        raw.sendall(b"this is not json\n")
        reply = json.loads(raw.makefile("rb").readline())
        raw.close()
    assert reply["kind"] == "response"
    payload = reply["payload"]["payload"]
    assert payload["exit_code"] == 2
    assert payload["error"]["code"] == "bad-request"


def test_server_stats_count_requests(tmp_path):
    request = api.CompileRequest(source=KERNEL, fmt="summary")
    with serving(tmp_path) as client:
        client.submit(request)
        client.submit(request)
        stats = client.server_stats()
    assert stats["counts"]["requests"] == 2
    assert stats["counts"]["completed"] == 2
    assert stats["verbs"] == {"emit": 2}
    assert stats["governor"]["in_flight"] == {}


def test_server_stats_expose_telemetry_and_bucket_state(tmp_path):
    from repro.service import TELEMETRY_SCHEMA

    request = api.CompileRequest(source=KERNEL, fmt="summary")
    with serving(tmp_path) as client:
        client.submit(request)
        client.submit(request)
        stats = client.server_stats()
    assert stats["uptime_s"] >= 0
    telemetry = stats["telemetry"]
    assert telemetry["schema"] == TELEMETRY_SCHEMA
    emit = telemetry["verbs"]["emit"]
    assert emit["requests"] == 2
    assert emit["outcomes"]["completed"] == 2
    assert emit["latency"]["count"] == 2
    assert emit["latency"]["buckets"][-1] == {"le": "+Inf", "count": 2}
    assert emit["latency"]["sum_s"] > 0
    # Per-client token-bucket state: two tokens burned, none in flight.
    bucket = stats["governor"]["buckets"]["test"]
    assert bucket["in_flight"] == 0
    assert bucket["level"] <= stats["governor"]["limits"]["burst"]


def test_telemetry_counts_failures_and_rejections(tmp_path):
    good = api.CompileRequest(source=KERNEL, fmt="summary")
    bad = api.CompileRequest(source="int broken(", fmt="summary")
    with serving(tmp_path, rate=1e-9, burst=2.0) as client:
        assert client.submit(good).ok
        assert not client.submit(bad).ok
        rejected = client.submit(good)
        stats = client.server_stats()
    assert rejected.exit_code == REJECTED_EXIT_CODE
    emit = stats["telemetry"]["verbs"]["emit"]
    assert emit["requests"] == 3
    assert emit["outcomes"] == {"completed": 1, "failed": 1, "rejected": 1}
    # Rejections never open a latency window; admitted requests do.
    assert emit["latency"]["count"] == 2
    assert stats["telemetry"]["rejections"] == {RATE_LIMITED: 1}


def test_telemetry_scrape_round_trips_through_parser(tmp_path):
    from repro.service import parse_prometheus

    request = api.CompileRequest(source=KERNEL, fmt="summary")
    with serving(tmp_path) as client:
        client.submit(request)
        text = client.telemetry()
    samples = parse_prometheus(text)
    assert samples[
        ("repro_requests_total", (("outcome", "completed"), ("verb", "emit")))
    ] == 1
    assert samples[("repro_request_latency_seconds_count", (("verb", "emit"),))] == 1
    assert samples[
        ("repro_request_latency_seconds_bucket", (("le", "+Inf"), ("verb", "emit")))
    ] == 1
    assert samples[("repro_in_flight_requests", ())] == 0


# ---------------------------------------------------------------------------
# The request path: a warm request of a memoized verb is answered in the
# event loop under ``cache.lookup_only()``; everything else goes to the pool.

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork start method"
)

#: One request per verb that declares ``MEMOIZED``.
MEMOIZED_REQUESTS = [
    pytest.param(api.CompileRequest(source=KERNEL, fmt="c"), id="emit"),
    pytest.param(api.LintRequest(bench="bfs"), id="lint-bench"),
]


class _Wire:
    """Submits a hand-built wire dict through ``ServiceClient.submit``."""

    def __init__(self, wire):
        self.wire = wire

    def to_wire(self):
        return dict(self.wire)


def _paths(client, verb):
    return client.server_stats()["telemetry"]["verbs"][verb]["paths"]


def _pipeline_stats(client):
    return client.server_stats()["cache"]["pipeline"]


def _answer(response):
    return response.replace(cache=None)


@pytest.mark.parametrize("layer", ["memory", "disk"])
@pytest.mark.parametrize("request_", MEMOIZED_REQUESTS)
def test_hits_are_answered_in_loop_and_misses_are_not(
    tmp_path, cold_store, monkeypatch, request_, layer
):
    asked = []

    def no_pool(self, wire, loop):
        asked.append(wire["verb"])
        raise RuntimeError("the pool is off limits in this test")

    monkeypatch.setattr(RequestPool, "submit", no_pool)
    with serving(tmp_path) as client:
        with pytest.raises(ServiceError):
            client.submit(request_)  # cold: nothing to look up, the pool is asked
        assert asked == [request_.VERB]
        expected = api.handle(request_)  # fills memory and disk
        if layer == "disk":
            cache.reset(stats=False)
        for _ in range(2):
            response = client.submit(request_)
            assert _answer(response) == _answer(expected)
            assert response.cache["pipeline"] == {"hits": 1, "misses": 0}
        assert asked == [request_.VERB]
        assert _paths(client, request_.VERB) == {"loop": 2, "pool": 1}


@pytest.mark.parametrize("workers", [0, pytest.param(1, marks=needs_fork)])
def test_each_request_is_booked_once_whichever_path_answers(tmp_path, cold_store, workers):
    from repro.workloads import ALL_BENCHMARKS

    emit = api.CompileRequest(source=KERNEL, fmt="summary")
    first = sorted(ALL_BENCHMARKS)[0]
    with serving(tmp_path, workers=workers) as client:
        cold = client.submit(emit)
        assert cold.cache["pipeline"] == {"hits": 0, "misses": 1}
        assert _pipeline_stats(client) == {"hits": 0, "misses": 1}
        assert _paths(client, "emit") == {"loop": 0, "pool": 1}
        warm = client.submit(emit)
        assert warm.cache["pipeline"] == {"hits": 1, "misses": 0}
        assert _pipeline_stats(client) == {"hits": 1, "misses": 1}
        assert _paths(client, "emit") == {"loop": 1, "pool": 1}
        assert warm.output == cold.output
        # A sweep whose first target is warm and whose second is not: the loop
        # finds one entry, misses, and books nothing — the pool books all ten.
        client.submit(api.LintRequest(bench=first))
        assert _pipeline_stats(client) == {"hits": 1, "misses": 2}
        sweep = client.submit(api.LintRequest(bench="all"))
        assert sweep.cache["pipeline"] == {"hits": 1, "misses": len(ALL_BENCHMARKS) - 1}
        assert _pipeline_stats(client) == {"hits": 2, "misses": len(ALL_BENCHMARKS) + 1}
        assert _paths(client, "lint") == {"loop": 0, "pool": 2}
        # A verb that does not declare MEMOIZED never tries the loop.
        report = api.ReportRequest(results_dir=str(tmp_path), quiet=True)
        assert client.submit(report).ok and client.submit(report).ok
        assert _paths(client, "report") == {"loop": 0, "pool": 2}


@needs_fork
def test_no_cache_env_keeps_every_request_on_the_pool(tmp_path, cold_store, monkeypatch):
    # No disk store: what a worker computed never reaches the loop's process.
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    emit = api.CompileRequest(source=KERNEL, fmt="summary")
    with serving(tmp_path, workers=1) as client:
        assert client.submit(emit).output == client.submit(emit).output
        assert _pipeline_stats(client) == {"hits": 1, "misses": 1}  # the worker's memory
        assert _paths(client, "emit") == {"loop": 0, "pool": 2}


@pytest.mark.parametrize("request_", MEMOIZED_REQUESTS)
def test_verify_each_always_takes_the_pool(tmp_path, cold_store, request_):
    verified = request_.replace(verify_each=True)
    with serving(tmp_path) as client:
        # The unverified twin leaves its entries behind: a miss, then a loop hit.
        assert client.submit(request_).ok and client.submit(request_).ok
        for _ in range(2):
            response = client.submit(verified)
            assert response.ok
            assert response.cache["pipeline"] == {"hits": 0, "misses": 0}
        assert _paths(client, request_.VERB) == {"loop": 1, "pool": 3}


@needs_fork
def test_key_lock_held_elsewhere_never_stalls_the_loop(tmp_path, cold_store):
    from repro.api.handlers import _compile_options

    request = api.CompileRequest(source=KERNEL, fmt="summary")
    key = cache.content_hash("source", KERNEL, None, _compile_options(request).cache_key())
    ctx = multiprocessing.get_context("fork")
    held, release = ctx.Event(), ctx.Event()

    def hold():
        with cache._key_lock("pipeline", key):
            held.set()
            release.wait(30)

    # Forked before the daemon thread exists (a fork with threads is deprecated).
    holder = ctx.Process(target=hold)
    holder.start()
    try:
        assert held.wait(10), "holder never took the key lock"
        began = time.monotonic()
        assert Daemon._lookup(protocol.request_envelope(request)) is None
        assert time.monotonic() - began < 5.0
        with serving(tmp_path, workers=1) as client:
            answers = []
            submitter = threading.Thread(target=lambda: answers.append(client.submit(request)))
            submitter.start()
            # The worker is now blocked on the lock. The loop is not: it keeps
            # answering controls, which is also how the test sees the request
            # in flight.
            probe = ServiceClient(socket_path=client.socket_path, client_id="probe", timeout=5.0)
            deadline = time.monotonic() + 10
            while probe.server_stats()["telemetry"]["in_flight"] != 1:
                assert time.monotonic() < deadline, "the request never reached the pool"
                time.sleep(0.01)
            assert probe.ping()["ok"]
            assert submitter.is_alive() and not answers
            release.set()
            submitter.join(30)
            assert not submitter.is_alive()
            assert answers[0].ok
            assert answers[0].cache["pipeline"] == {"hits": 0, "misses": 1}
            assert _paths(client, "emit") == {"loop": 0, "pool": 1}
    finally:
        release.set()
        holder.join(10)
        assert not holder.is_alive()


def test_damaged_entry_is_a_miss_the_pool_recomputes_and_overwrites(tmp_path, cold_store):
    request = api.CompileRequest(source=KERNEL, fmt="ir")
    with serving(tmp_path) as client:
        good = client.submit(request)
        entries = [
            os.path.join(root, name)
            for root, _, names in os.walk(str(tmp_path / "cache"))
            for name in names
            if name.endswith(".pkl")
        ]
        assert len(entries) == 2  # source key + IR key
        for path in entries:
            with open(path, "rb") as handle:
                data = handle.read()
            with open(path, "wb") as handle:
                handle.write(data[: len(data) // 2])
        cache.reset(stats=False)  # the inline executor shares the loop's memory
        again = client.submit(request)
        assert again.output == good.output
        assert again.cache["pipeline"] == {"hits": 0, "misses": 1}
        assert _paths(client, "emit") == {"loop": 0, "pool": 2}
        cache.reset(stats=False)
        healed = client.submit(request)
        assert healed.output == good.output
        assert healed.cache["pipeline"] == {"hits": 1, "misses": 0}
        assert _paths(client, "emit") == {"loop": 1, "pool": 2}


@pytest.mark.parametrize("request_", MEMOIZED_REQUESTS)
def test_in_loop_verbs_keep_rejection_and_error_codes(tmp_path, cold_store, request_):
    api.handle(request_)  # warm: every admitted submission below is a loop hit
    with serving(tmp_path, rate=1e-9, burst=1.0) as client:
        assert client.submit(request_).ok
        limited = client.submit(request_)
    assert (limited.exit_code, limited.error["code"]) == (REJECTED_EXIT_CODE, RATE_LIMITED)
    with serving(tmp_path, quota=1) as client:
        client.daemon.governor.admit("test")  # as if one job of ours were in flight
        over = client.submit(request_)
        client.daemon.governor.release("test")
        assert client.submit(request_).ok
    assert (over.exit_code, over.error["code"]) == (REJECTED_EXIT_CODE, QUOTA_EXCEEDED)
    with serving(tmp_path) as client:
        mistyped = client.submit(_Wire(dict(request_.to_wire(), payload={"stages": "4"})))
        broken = client.submit(request_.replace(stages=0))
        assert _paths(client, request_.VERB) == {"loop": 2, "pool": 0}
    assert (mistyped.exit_code, mistyped.error["code"]) == (2, "bad-request")
    assert (broken.exit_code, broken.error["code"]) == (1, "toolchain-error")


@pytest.mark.slow
def test_cli_serve_submit_round_trip(tmp_path):
    """End to end through ``repro serve`` / ``repro submit`` subprocesses."""
    import os
    import subprocess
    import sys

    sock = str(tmp_path / "cli.sock")
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), "src") if p
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock, "--workers", "1"],
        env=env,
    )
    try:
        run = subprocess.run(
            [sys.executable, "-m", "repro", "submit", "--socket", sock,
             "--wait", "30", "demo", "bfs", "--size", "300"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert "phloem" in run.stdout
        down = subprocess.run(
            [sys.executable, "-m", "repro", "submit", "--socket", sock, "--shutdown"],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert down.returncode == 0, down.stderr
        assert server.wait(timeout=30) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
