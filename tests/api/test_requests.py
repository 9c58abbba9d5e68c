"""Wire (de)serialization of the request/response layer."""

import json

import pytest

from repro.api import (
    API_VERSION,
    ApiError,
    BenchPerfRequest,
    CompileRequest,
    LintRequest,
    MetricsRequest,
    MetricsResponse,
    ReportRequest,
    Request,
    Response,
    RunRequest,
    SearchRequest,
    TraceRequest,
    error_response,
)
from repro.api.requests import REQUEST_SCHEMA, REQUEST_TYPES, RESPONSE_TYPES

ALL_REQUESTS = [
    CompileRequest(source="void k() {}", name="k", fmt="summary"),
    LintRequest(bench="bfs", json=True, perf=True),
    RunRequest(bench="cc", size=120, seed=3),
    SearchRequest(bench="prd", prune_static=True),
    TraceRequest(bench="radii", trace_out="/tmp/t.json", profile_passes=True),
    MetricsRequest(bench="spmm", quiet=True),
    BenchPerfRequest(benches=("bfs", "cc"), scale="quick", strict=True),
    ReportRequest(results_dir="/tmp/results", title="run 1", html_out="/tmp/r.html"),
]


@pytest.mark.parametrize("request_obj", ALL_REQUESTS, ids=lambda r: r.VERB)
def test_round_trip_preserves_fields(request_obj):
    wire = request_obj.to_wire()
    # The wire object must survive real JSON serialization.
    rebuilt = Request.from_wire(json.loads(json.dumps(wire)))
    assert type(rebuilt) is type(request_obj)
    assert rebuilt.to_wire() == wire


def test_wire_envelope_shape():
    wire = MetricsRequest(bench="bfs").to_wire()
    assert wire["schema"] == REQUEST_SCHEMA
    assert wire["version"] == API_VERSION
    assert wire["verb"] == "metrics"
    assert wire["payload"]["bench"] == "bfs"


def test_unknown_payload_keys_ignored():
    wire = RunRequest(bench="bfs").to_wire()
    wire["payload"]["added_in_v99"] = {"x": 1}
    rebuilt = Request.from_wire(wire)
    assert rebuilt.bench == "bfs"
    assert not hasattr(rebuilt, "added_in_v99")


def test_wrong_schema_rejected():
    with pytest.raises(ApiError):
        Request.from_wire({"schema": "nope", "version": 1, "verb": "demo"})


def test_bad_version_rejected():
    wire = RunRequest().to_wire()
    wire["version"] = "one"
    with pytest.raises(ApiError):
        Request.from_wire(wire)


def test_unknown_verb_rejected():
    wire = RunRequest().to_wire()
    wire["verb"] = "frobnicate"
    with pytest.raises(ApiError):
        Request.from_wire(wire)


def test_every_verb_has_a_response_type():
    for verb, cls in REQUEST_TYPES.items():
        assert cls.VERB == verb
        assert cls.RESPONSE is not Response and issubclass(cls.RESPONSE, Response), verb
        assert RESPONSE_TYPES[cls.RESPONSE.__name__] is cls.RESPONSE


def _wire(verb, **payload):
    return {"schema": REQUEST_SCHEMA, "version": API_VERSION, "verb": verb, "payload": payload}


@pytest.mark.parametrize(
    "verb, payload, field",
    [
        # The four defects a decoded payload used to carry into the handlers:
        ("emit", {"stages": "4"}, "stages"),  # TypeError '<' deep in the compiler
        ("emit", {"fmt": "nope"}, "fmt"),  # silently rendered as "c"
        ("demo", {"bench": "nope"}, "bench"),  # KeyError 'nope'
        ("bench-perf", {"benches": "bfs"}, "benches"),  # "unknown benchmark 'b'"
        # ...and the rest of the field-table rules.
        ("emit", {"stages": True}, "stages"),  # a bool is not a number
        ("emit", {"stages": None}, "stages"),  # null only where the default is None
        ("lint", {"json": 1}, "json"),
        ("bench-perf", {"engine": "warp"}, "engine"),
        ("bench-perf", {"threshold": "0.5"}, "threshold"),
        ("bench-perf", {"scale": "huge"}, "scale"),
        ("metrics", {"metrics_out": 7}, "metrics_out"),
    ],
)
def test_from_wire_rejects_mistyped_payload_naming_the_field(verb, payload, field):
    with pytest.raises(ApiError, match=r"bad %s payload: %s must be " % (verb, field)):
        Request.from_wire(_wire(verb, **payload))


def test_from_wire_accepts_what_the_field_table_allows():
    # Missing keys default, unknown keys are dropped, null is fine where the
    # default is None, a JSON list becomes the benches tuple, an int is a
    # float, and every declared choice decodes.
    assert Request.from_wire(_wire("demo", later="x")) == RunRequest()
    assert Request.from_wire(_wire("emit", name=None, passes=None)) == CompileRequest()
    perf = Request.from_wire(
        _wire("bench-perf", benches=["bfs", "cc"], engine="all", jobs=None, threshold=1)
    )
    assert perf.benches == ("bfs", "cc") and perf.engine == "all" and perf.threshold == 1
    for fmt in ("c", "ir", "summary", "diagram"):
        assert Request.from_wire(_wire("emit", fmt=fmt)).fmt == fmt


def test_response_round_trip():
    response = MetricsResponse(
        verb="metrics",
        exit_code=0,
        output="{}\n",
        records=[{"bench": "bfs"}],
        cache={"pipeline": {"hits": 1, "misses": 0}},
    )
    rebuilt = Response.from_wire(json.loads(json.dumps(response.to_wire())))
    assert type(rebuilt) is MetricsResponse
    assert rebuilt.ok
    assert rebuilt.records == [{"bench": "bfs"}]
    assert rebuilt.cache["pipeline"]["hits"] == 1


def test_response_unknown_type_falls_back_to_base():
    wire = Response(verb="demo").to_wire()
    wire["type"] = "FutureResponse"
    rebuilt = Response.from_wire(wire)
    assert type(rebuilt) is Response
    assert rebuilt.verb == "demo"


def test_error_response_shape():
    response = error_response("demo", "rate-limited", "slow down", exit_code=75)
    assert not response.ok
    assert response.exit_code == 75
    assert response.error == {"code": "rate-limited", "message": "slow down"}
