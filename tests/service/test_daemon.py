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
from repro.service.pool import execute_wire
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
def serving(tmp_path, workers=0, tcp=False, **kwargs):
    """A live daemon (inline executor unless ``workers``; on a unix socket
    unless ``tcp``) plus a connected client; ``client.daemon`` is the
    instance, for tests that reach inside."""
    if tcp:
        daemon = Daemon(host="127.0.0.1", workers=workers, **kwargs)
    else:
        daemon = Daemon(socket_path=str(tmp_path / "serve.sock"), workers=workers, **kwargs)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(daemon.serve(ready=ready)), daemon=True
    )
    thread.start()
    assert ready.wait(10), "daemon never bound its socket"
    client = ServiceClient(
        socket_path=daemon.socket_path, host=daemon.host, port=daemon.port,
        client_id="test", timeout=30.0,
    )
    client.daemon = daemon
    client.wait_ready(timeout=10)
    try:
        yield client
    finally:
        with contextlib.suppress(ServiceError):
            client.shutdown()
        client.close()
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


def test_one_line_answers_a_job_records_included(tmp_path):
    request = api.MetricsRequest(bench="bfs", size=300, quiet=True)
    with serving(tmp_path) as client, _raw(client) as (raw, lines):
        raw.sendall(protocol.encode(protocol.request_envelope(request)) + PING)
        answer = _reply(lines)
        assert _reply(lines)["kind"] == "control-reply"  # the next line answers the ping
    assert answer["kind"] == "response"
    response = api.Response.from_wire(answer["payload"])
    assert response.ok and response.records
    expected = [json.loads(line) for line in response.output.splitlines() if line.strip()]
    assert response.records == expected


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


def test_malformed_number_is_a_toolchain_error(cold_store):
    # A literal int()/float() cannot read used to escape as a ValueError.
    request = api.CompileRequest(source="void k(int* a) { a[0] = 0x; }", fmt="summary")
    payload = execute_wire(request.to_wire())["payload"]
    assert payload["error"] == {
        "code": "toolchain-error",
        "message": "line 1:25: malformed number '0x'",
    }


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
        # Cold: nothing to look up, the pool is asked, and its failure is
        # answered on the connection rather than dropping it.
        failed = client.submit(request_)
        assert (failed.exit_code, failed.error["code"]) == (1, "internal-error")
        assert "the pool is off limits" in failed.error["message"]
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
    request = api.CompileRequest(source=KERNEL, fmt="summary")
    key = cache.content_hash("answer", request.VERB, *request.fields().values())
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
        assert len(entries) == 2  # answer key + IR key
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


# ---------------------------------------------------------------------------
# Connections: a client opens one and sends every request over it; the
# daemon answers every line it reads and closes idle connections silently.

PING = protocol.encode(protocol.control_envelope("ping"))


@contextlib.contextmanager
def _raw(client):
    """A bare socket to the client's daemon, plus a line reader over it."""
    if client.socket_path is not None:
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(10)
        raw.connect(client.socket_path)
    else:
        raw = socket.create_connection((client.host, client.port), timeout=10)
    lines = raw.makefile("rb")
    try:
        yield raw, lines
    finally:
        lines.close()
        raw.close()


def _reply(lines):
    return json.loads(lines.readline())


def _connections(client):
    return client.server_stats()["telemetry"]["connections"]


def _settle(daemon, open_connections):
    """Wait until the daemon has exactly ``open_connections`` open."""
    deadline = time.monotonic() + 10
    while daemon.telemetry.connections_open != open_connections:
        assert time.monotonic() < deadline, daemon.telemetry.connections_open
        time.sleep(0.01)


@pytest.fixture
def no_loop_errors(caplog):
    """Fails the test if asyncio logged anything (an unhandled exception in
    a connection handler, a callback that raised)."""
    yield
    errors = [r.getMessage() for r in caplog.records if r.name == "asyncio"]
    assert errors == []


@pytest.mark.parametrize(
    "envelope",
    [
        {"verb": ["x"], "schema": "repro.api/request", "version": 1, "payload": {}},
        {"verb": "emit", "client": ["a"], "schema": "repro.api/request", "version": 1,
         "payload": {"source": KERNEL}},
        {"verb": {"emit": 1}, "client": "a", "schema": "repro.api/request", "version": 1,
         "payload": {}},
    ],
    ids=["list-verb", "list-client", "dict-verb"],
)
def test_non_string_verb_or_client_is_a_bad_request(tmp_path, no_loop_errors, envelope):
    with serving(tmp_path) as client, _raw(client) as (raw, lines):
        raw.sendall(protocol.encode(envelope))
        reply = _reply(lines)
        raw.sendall(PING)  # the same connection keeps serving
        assert _reply(lines)["payload"]["ok"]
        assert client.ping()["ok"]  # and so does the daemon
        stats = client.server_stats()
    payload = reply["payload"]["payload"]
    assert reply["kind"] == "response"
    assert (payload["exit_code"], payload["error"]["code"]) == (2, "bad-request")
    assert "must be a string" in payload["error"]["message"]
    assert stats["counts"]["failed"] == 1
    assert stats["verbs"] == {}


def test_unknown_verbs_do_not_grow_the_verb_table(tmp_path, no_loop_errors):
    # Any client may send any verb string: only known verbs get a counter.
    with serving(tmp_path) as client, _raw(client) as (raw, lines):
        for i in range(50):
            envelope = {"verb": "bogus-%d" % i, "schema": "repro.api/request", "version": 1,
                        "payload": {}}
            raw.sendall(protocol.encode(envelope))
            assert _reply(lines)["payload"]["payload"]["error"]["code"] == "unsupported-verb"
        stats = client.server_stats()
    assert stats["verbs"] == {}
    assert stats["counts"]["failed"] == 50


def _finished(daemon, verb):
    """Requests of ``verb`` the daemon has answered or failed so far."""
    row = daemon.telemetry.verbs.get(verb)
    return 0 if row is None else row.outcomes["completed"] + row.outcomes["failed"]


@pytest.mark.parametrize("workers", [0, pytest.param(1, marks=needs_fork)])
def test_stats_count_each_request_once(tmp_path, cold_store, no_loop_errors, workers):
    emit = api.CompileRequest(source=KERNEL, fmt="summary")
    report = api.ReportRequest(results_dir=str(tmp_path), quiet=True)
    with serving(tmp_path, workers=workers, rate=1e-9, burst=3.0) as client:
        pool_submit = client.daemon.pool.submit

        def submit(wire, loop):
            if wire["verb"] != "report":
                return pool_submit(wire, loop)
            # Answered well after its client has gone.
            future = loop.create_future()
            loop.call_later(0.3, future.set_result, execute_wire(wire))
            return future

        client.daemon.pool.submit = submit
        assert client.submit(emit).ok  # cold: the pool compiles
        assert client.submit(emit).ok  # warm: answered in the loop
        assert not client.submit(emit.replace(source="int broken(")).ok
        assert client.submit(emit).exit_code == REJECTED_EXIT_CODE  # the burst is spent
        envelope = {"verb": "frobnicate", "schema": "repro.api/request", "version": 1,
                    "payload": {}}
        assert client.submit(_Wire(envelope)).error["code"] == "unsupported-verb"
        with _raw(client) as (raw, lines):
            raw.sendall(protocol.encode(dict(envelope, verb=["x"])))
            assert _reply(lines)["payload"]["payload"]["error"]["code"] == "bad-request"
        with _raw(client) as (raw, _lines):
            raw.sendall(protocol.encode(protocol.request_envelope(report)))
        deadline = time.monotonic() + 10
        while _finished(client.daemon, "report") < 1:
            assert time.monotonic() < deadline, "the report never finished"
            time.sleep(0.01)
        stats = client.server_stats()
    telemetry = stats["telemetry"]
    assert stats["counts"] == {"requests": 7, "completed": 3, "failed": 3, "rejected": 1}
    assert stats["verbs"] == {"emit": 4, "report": 1}
    assert stats["governor"]["rejected"] == {RATE_LIMITED: 1, QUOTA_EXCEEDED: 0}
    assert stats["cache"] == {
        "pipeline": {"hits": 1, "misses": 1},
        "baseline": {"hits": 0, "misses": 0},
        "search": {"hits": 0, "misses": 0},
    }
    assert stats["uptime_s"] == telemetry["uptime_s"] >= 0
    assert telemetry["unrouted"] == 2
    assert telemetry["verbs"]["emit"]["paths"] == {"loop": 1, "pool": 2}
    assert telemetry["verbs"]["report"]["outcomes"] == {"completed": 1, "failed": 0, "rejected": 0}


def test_error_response_carries_the_lookups_before_the_error(tmp_path, cold_store, monkeypatch):
    from repro.core import compiler
    from repro.errors import PhloemError

    def fail(*args, **kwargs):
        raise PhloemError("forced failure")

    # The source key misses, the parse runs, the IR key books its miss, and
    # only then does the compile fail.
    monkeypatch.setattr(compiler, "compile_function", fail)
    with serving(tmp_path) as client:
        response = client.submit(api.CompileRequest(source=KERNEL, fmt="summary"))
        stats = client.server_stats()
    assert (response.exit_code, response.error["code"]) == (1, "toolchain-error")
    assert response.cache["pipeline"] == {"hits": 0, "misses": 1}
    assert stats["cache"]["pipeline"] == {"hits": 0, "misses": 1}


def test_one_client_is_one_connection(tmp_path, cold_store, no_loop_errors):
    request = api.CompileRequest(source=KERNEL, fmt="summary")
    expected = api.handle(request).output
    with serving(tmp_path, rate=0) as client:  # wait_ready has pinged
        for _ in range(20):
            assert client.submit(request).output == expected
        stats = client.server_stats()
        assert stats["counts"]["completed"] == 20
        assert stats["telemetry"]["connections"] == {"opened": 1, "open": 1}
        with ServiceClient(socket_path=client.socket_path, client_id="other") as other:
            assert other.submit(request).output == expected
            assert _connections(client) == {"opened": 2, "open": 2}
        _settle(client.daemon, 1)
        text = client.telemetry()
    from repro.service import parse_prometheus

    samples = parse_prometheus(text)
    assert samples[("repro_connections_total", ())] == 2
    assert samples[("repro_open_connections", ())] == 1


def test_threads_sharing_a_client_share_its_connection(tmp_path, cold_store, no_loop_errors):
    requests = [
        api.CompileRequest(source=KERNEL, fmt="summary"),
        api.CompileRequest(source=KERNEL, fmt="c"),
    ]
    expected = [api.handle(request).output for request in requests]
    assert expected[0] != expected[1]
    with serving(tmp_path, rate=0) as client:
        answers = [[], []]

        def submit_ten(i):
            for _ in range(10):
                answers[i].append(client.submit(requests[i]).output)

        threads = [threading.Thread(target=submit_ten, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert _connections(client) == {"opened": 1, "open": 1}
    assert answers == [[expected[0]] * 10, [expected[1]] * 10]


def test_idle_connection_closes_silently_and_the_client_reconnects(
    tmp_path, monkeypatch, no_loop_errors
):
    from repro.service import daemon as daemon_module

    monkeypatch.setattr(daemon_module, "READ_TIMEOUT", 0.2)
    request = api.CompileRequest(source=KERNEL, fmt="summary")
    with serving(tmp_path) as client:
        with _raw(client) as (raw, lines):
            assert lines.readline() == b""  # closed, and not one byte written
        _settle(client.daemon, 0)  # the client's own connection went too
        assert client.submit(request).ok  # on a fresh connection
        stats = client.server_stats()
    assert stats["counts"]["requests"] == 1  # the request ran once
    # wait_ready, the raw socket, then the retry of the submit.
    assert stats["telemetry"]["connections"] == {"opened": 3, "open": 1}


def test_a_busy_connection_is_not_idle(tmp_path, monkeypatch, no_loop_errors):
    from repro.service import daemon as daemon_module

    monkeypatch.setattr(daemon_module, "READ_TIMEOUT", 0.2)
    with serving(tmp_path) as client:

        def submit(wire, loop):
            # Answered later, and the loop stays free meanwhile: the idle
            # timer fires while the request runs.
            future = loop.create_future()
            loop.call_later(0.5, future.set_result, execute_wire(wire))
            return future

        client.daemon.pool.submit = submit
        report = api.ReportRequest(results_dir=str(tmp_path), quiet=True)
        assert client.submit(report).ok
        assert _connections(client) == {"opened": 1, "open": 1}


def test_truncated_last_line_is_answered_before_eof(tmp_path, no_loop_errors):
    with serving(tmp_path) as client, _raw(client) as (raw, lines):
        raw.sendall(PING + b'{"schema": "repro.api/request", "verb": "em')
        raw.shutdown(socket.SHUT_WR)
        assert _reply(lines)["payload"]["ok"]
        reply = _reply(lines)
        assert lines.readline() == b""
        assert client.ping()["ok"]
    payload = reply["payload"]["payload"]
    assert (payload["exit_code"], payload["error"]["code"]) == (2, "bad-request")


def test_line_over_the_read_limit_is_answered_then_closed(tmp_path, monkeypatch, no_loop_errors):
    monkeypatch.setattr(protocol, "MAX_LINE", 4096)
    with serving(tmp_path) as client, _raw(client) as (raw, lines):
        raw.sendall(b"x" * 10000)
        reply = _reply(lines)
        assert lines.readline() == b""  # the rest of the line cannot be framed
        assert client.ping()["ok"]
    payload = reply["payload"]["payload"]
    assert (payload["exit_code"], payload["error"]["code"]) == (2, "bad-request")


def test_client_gone_before_its_answer(tmp_path, no_loop_errors):
    request = api.MetricsRequest(bench="bfs", size=300, quiet=True)
    with serving(tmp_path) as client:
        with _raw(client) as (raw, _lines):
            raw.sendall(protocol.encode(protocol.request_envelope(request)))
        _settle(client.daemon, 1)
        assert client.ping()["ok"]
        assert client.submit(request).ok


def test_shutdown_closes_idle_connections_of_other_clients(tmp_path, no_loop_errors):
    with serving(tmp_path) as client:
        other = ServiceClient(socket_path=client.socket_path, client_id="other")
        assert other.ping()["ok"]  # and now holds an idle connection
        _settle(client.daemon, 2)
    # serving() asserted the daemon thread ended within its join timeout.
    with pytest.raises(ServiceError):
        other.ping()  # the retry finds nobody listening
    other.close()


def test_a_daemon_that_serves_one_job_per_connection_still_answers(tmp_path):
    # What a daemon that closes after each job looks like to a kept socket.
    path = str(tmp_path / "one-job.sock")
    accepted = []
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(4)

    def serve_three():
        for _ in range(3):
            conn, _ = listener.accept()
            accepted.append(conn)
            with conn, conn.makefile("rb") as lines:
                action = json.loads(lines.readline())["action"]
                conn.sendall(protocol.encode(protocol.control_reply({"action": action})))

    thread = threading.Thread(target=serve_three, daemon=True)
    thread.start()
    try:
        with ServiceClient(socket_path=path, timeout=10) as client:
            assert [client.control(a)["action"] for a in ("ping", "stats", "ping")] == [
                "ping", "stats", "ping"
            ]
    finally:
        thread.join(10)
        listener.close()
    assert len(accepted) == 3


def test_request_sequence_over_tcp(tmp_path, cold_store, monkeypatch, no_loop_errors):
    from repro.service import daemon as daemon_module

    monkeypatch.setattr(daemon_module, "READ_TIMEOUT", 0.2)
    emit = api.CompileRequest(source=KERNEL, fmt="summary")
    metrics = api.MetricsRequest(bench="bfs", size=300, quiet=True)
    with serving(tmp_path, tcp=True) as client:
        assert client.socket_path is None and client.port > 0
        cold = client.submit(emit)
        warm = client.submit(emit)
        answer = client.submit(metrics)
        assert answer.ok and answer.records
        assert _connections(client) == {"opened": 1, "open": 1}
        with _raw(client) as (raw, lines):
            raw.sendall(b"not json\n" + PING)
            assert _reply(lines)["payload"]["payload"]["error"]["code"] == "bad-request"
            assert _reply(lines)["payload"]["ok"]
        _settle(client.daemon, 0)  # idle: both connections closed
        again = client.submit(emit)
        stats = client.server_stats()
    assert cold.output == warm.output == again.output
    assert _answer(warm) == _answer(again)
    assert stats["counts"]["requests"] == 4
    assert stats["telemetry"]["connections"] == {"opened": 3, "open": 1}
    assert stats["telemetry"]["verbs"]["emit"]["paths"] == {"loop": 2, "pool": 1}


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
