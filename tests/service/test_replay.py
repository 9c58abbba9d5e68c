"""The daemon's replay table: a line its event loop answered from the memo
without error is answered again from the bytes it wrote."""

import hashlib

from repro import api, cache
from repro.client import ServiceClient
from repro.service import REJECTED_EXIT_CODE, RequestPool, daemon, protocol
from repro.service.ratelimit import QUOTA_EXCEEDED, RATE_LIMITED

from .test_daemon import KERNEL, _paths, _raw, needs_fork, serving

EMIT = api.CompileRequest(source=KERNEL, fmt="summary")


def _line(request, client="test"):
    return protocol.encode(protocol.request_envelope(request, client=client))


def _no_full_path(monkeypatch):
    """From here on neither the loop's lookup nor the pool can answer."""

    def refuse(*args, **kwargs):
        raise AssertionError("the full path answered a replayed line")

    monkeypatch.setattr(daemon, "execute_wire", refuse)
    monkeypatch.setattr(RequestPool, "submit", refuse)


def test_a_repeated_line_is_replayed_byte_for_byte(tmp_path, cold_store, monkeypatch):
    line = _line(EMIT)
    with serving(tmp_path) as client, _raw(client) as (raw, lines):
        replies = []
        for _ in range(3):
            if len(replies) == 2:
                _no_full_path(monkeypatch)
            raw.sendall(line)
            replies.append(lines.readline())
        paths = _paths(client, "emit")
        stats = client.server_stats()
    cold, warm, replayed = (api.Response.from_wire(protocol.decode(r)["payload"]) for r in replies)
    assert replies[2] == replies[1] != replies[0]
    assert replayed.ok and replayed.output == cold.output
    assert replayed.cache["pipeline"] == warm.cache["pipeline"] == {"hits": 1, "misses": 0}
    assert paths == {"loop": 2, "pool": 1}
    assert stats["cache"]["pipeline"] == {"hits": 2, "misses": 1}
    assert stats["counts"] == {"requests": 3, "completed": 3, "failed": 0, "rejected": 0}


def test_only_error_free_loop_answers_are_replayed(tmp_path, cold_store):
    refused = EMIT.replace(stages=0)  # options the compiler refuses, in the loop
    verified = EMIT.replace(verify_each=True)  # always takes the pool
    with serving(tmp_path) as client:
        replays = client.daemon.replays
        assert client.submit(EMIT).ok  # cold: a pool answer
        assert not replays
        for _ in range(2):
            assert client.submit(refused).error["code"] == "toolchain-error"
            assert client.submit(verified).ok
        assert not replays
        assert _paths(client, "emit") == {"loop": 2, "pool": 3}
        assert client.submit(EMIT).ok  # warm: the loop answers, and keeps it
        assert list(replays) == [hashlib.sha256(_line(EMIT)).digest()]
        # The same request from another client is another line.
        other = ServiceClient(socket_path=client.socket_path, client_id="other")
        for _ in range(2):
            assert other.submit(EMIT).ok
        other.close()
        assert [who for _, who, _ in replays.values()] == ["test", "other"]
        assert _paths(client, "emit") == {"loop": 5, "pool": 3}


@needs_fork
def test_no_cache_env_replays_nothing(tmp_path, cold_store, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    with serving(tmp_path, workers=1) as client:
        for _ in range(3):
            assert client.submit(EMIT).ok
        assert _paths(client, "emit") == {"loop": 0, "pool": 3}
        assert not client.daemon.replays


def _rejection_message(client, code):
    limits = client.daemon.governor.snapshot()["limits"]
    return "client 'test' rejected: %s (limits %r)" % (code, limits)


def test_a_replayed_line_is_admitted_like_any_other(tmp_path, cold_store, monkeypatch):
    with serving(tmp_path, rate=1e-9, burst=2.0) as client, monkeypatch.context() as patch:
        assert client.submit(EMIT).ok and client.submit(EMIT).ok  # pool, then loop
        _no_full_path(patch)
        limited = client.submit(EMIT)
        message = _rejection_message(client, RATE_LIMITED)
        stats = client.server_stats()
    assert (limited.exit_code, limited.error) == (
        REJECTED_EXIT_CODE, {"code": RATE_LIMITED, "message": message}
    )
    assert stats["governor"]["rejected"] == {RATE_LIMITED: 1, QUOTA_EXCEEDED: 0}
    assert stats["counts"]["rejected"] == 1
    with serving(tmp_path, quota=1) as client, monkeypatch.context() as patch:
        assert client.submit(EMIT).ok  # the store is warm: a loop answer
        _no_full_path(patch)
        client.ping()  # the daemon has released that answer's quota slot
        # As if one job of ours were in flight:
        assert client.daemon.governor.admit("test") == (True, None)
        over = client.submit(EMIT)
        message = _rejection_message(client, QUOTA_EXCEEDED)
        client.daemon.governor.release("test")
        assert client.submit(EMIT).ok  # the quota is back: replayed
        stats = client.server_stats()
    assert (over.exit_code, over.error) == (
        REJECTED_EXIT_CODE, {"code": QUOTA_EXCEEDED, "message": message}
    )
    assert stats["governor"]["rejected"] == {RATE_LIMITED: 0, QUOTA_EXCEEDED: 1}
    assert stats["telemetry"]["verbs"]["emit"]["paths"] == {"loop": 2, "pool": 0}


def test_the_table_is_a_bounded_lru_of_digests(tmp_path, cold_store, monkeypatch):
    monkeypatch.setattr(cache, "MEMORY_ENTRIES", 2)
    a, b, c = (EMIT.replace(fmt=fmt) for fmt in ("summary", "ir", "c"))
    for request in (a, b, c):
        api.handle(request)  # warm: each first submission is a loop answer
    digest_a, digest_b, digest_c = (hashlib.sha256(_line(r)).digest() for r in (a, b, c))
    with serving(tmp_path) as client:
        replays = client.daemon.replays
        for request in (a, b, c):
            assert client.submit(request).ok
        assert list(replays) == [digest_b, digest_c]
        assert client.submit(b).ok  # a replay: now the most recently used
        assert client.submit(a).ok  # a loop answer again: evicts c
        assert list(replays) == [digest_b, digest_a]
        assert _paths(client, "emit") == {"loop": 5, "pool": 0}
    for key, (verb, client_id, answer) in replays.items():
        assert isinstance(key, bytes) and len(key) == 32
        assert (verb, client_id, answer[0]) == ("emit", "test", "loop")
