"""The daemon end to end: an in-process instance over a real unix socket."""

import asyncio
import contextlib
import json
import socket
import threading

import pytest

from repro import api
from repro.client import ServiceClient, ServiceError
from repro.service import REJECTED_EXIT_CODE, Daemon
from repro.service.ratelimit import RATE_LIMITED

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
def serving(tmp_path, **kwargs):
    """A live daemon (inline executor) plus a connected client."""
    sock = str(tmp_path / "serve.sock")
    daemon = Daemon(socket_path=sock, workers=0, **kwargs)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(daemon.serve(ready=ready)), daemon=True
    )
    thread.start()
    assert ready.wait(10), "daemon never bound its socket"
    client = ServiceClient(socket_path=sock, client_id="test", timeout=30.0)
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
