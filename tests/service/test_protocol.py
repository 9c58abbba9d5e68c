"""NDJSON framing and envelope helpers."""

import pytest

from repro.api import ApiError, MetricsRequest, Response
from repro.service import protocol


def test_encode_decode_round_trip():
    envelope = protocol.request_envelope(MetricsRequest(bench="bfs"), client="t")
    line = protocol.encode(envelope)
    assert line.endswith(b"\n") and line.count(b"\n") == 1
    assert protocol.decode(line) == envelope


def test_decode_rejects_junk():
    with pytest.raises(ApiError):
        protocol.decode(b"not json\n")
    with pytest.raises(ApiError):
        protocol.decode(b"\n")
    with pytest.raises(ApiError):
        protocol.decode(b"[1, 2]\n")


def test_control_envelope_validates_action():
    wire = protocol.control_envelope("ping", client="t")
    assert protocol.is_control(wire)
    assert not protocol.is_control(MetricsRequest().to_wire())
    with pytest.raises(ApiError):
        protocol.control_envelope("reboot")


def test_every_control_action_builds_an_envelope():
    assert set(protocol.CONTROL_ACTIONS) == {"ping", "stats", "telemetry", "shutdown"}
    for action in protocol.CONTROL_ACTIONS:
        wire = protocol.control_envelope(action, client="t")
        assert protocol.is_control(wire)
        assert protocol.decode(protocol.encode(wire)) == wire


def test_response_message_carries_the_records():
    response = Response(verb="metrics", records=[{"a": 1}, {"b": 2}])
    message = protocol.response_message(response.to_wire())
    assert message == {"kind": "response", "payload": response.to_wire()}
    assert Response.from_wire(message["payload"]).records == [{"a": 1}, {"b": 2}]


def test_default_socket_path_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SOCKET", str(tmp_path / "x.sock"))
    assert protocol.default_socket_path() == str(tmp_path / "x.sock")
    monkeypatch.delenv("REPRO_SOCKET")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    path = protocol.default_socket_path(create_dir=True)
    assert path == str(tmp_path / "cache" / "serve.sock")
    assert (tmp_path / "cache").is_dir()
