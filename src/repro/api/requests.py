"""Typed, versioned request/response values for the compile-and-simulate API.

Every CLI verb (and every daemon job) is described by one frozen-shape
request dataclass — :class:`CompileRequest`, :class:`LintRequest`,
:class:`RunRequest`, :class:`SearchRequest`, :class:`TraceRequest`,
:class:`MetricsRequest`, :class:`BenchPerfRequest`, :class:`ReportRequest` —
and answered by one :class:`Response` dataclass.
Both sides are plain JSON-serializable data
following the ``repro.obs/run-record`` and ``repro.bench/perf-record``
idioms: a ``schema`` tag plus an integer ``version`` ride on every wire
object, additions never bump the version, and consumers ignore unknown
keys (so old clients keep working against newer daemons and vice versa).

Wire format::

    {"schema": "repro.api/request", "version": 1, "verb": "metrics",
     "payload": {...request fields...}}

    {"schema": "repro.api/response", "version": 1, "type": "MetricsResponse",
     "payload": {...response fields...}}

``Response.output`` carries the verb's one-shot stdout payload verbatim —
byte-identical to what the pre-service CLI printed — so the CLI and the
daemon are two frontends over the same code path. ``Response.records``
carries the structured stream (RunRecords, diagnostics, perf records)
that the daemon forwards as JSONL messages as they become available.
"""

import dataclasses
from dataclasses import dataclass, field

from ..errors import PhloemError

#: Schema identities stamped on every wire object.
REQUEST_SCHEMA = "repro.api/request"
RESPONSE_SCHEMA = "repro.api/response"
API_VERSION = 1


class ApiError(PhloemError):
    """A malformed or unsupported API request/response wire object."""


# ---------------------------------------------------------------------------
# Requests


@dataclass
class Request:
    """Base request: wire (de)serialization shared by every verb.

    Subclasses set :attr:`VERB` (the CLI verb they describe) and declare
    JSON-serializable fields only. Unknown payload keys are ignored on the
    way in (the versioning policy), so adding a field never breaks an old
    peer.
    """

    #: The CLI verb this request describes (class attribute, not a field).
    VERB = None

    def to_wire(self):
        """The JSON-serializable wire dict for this request."""
        return {
            "schema": REQUEST_SCHEMA,
            "version": API_VERSION,
            "verb": self.VERB,
            "payload": dataclasses.asdict(self),
        }

    @staticmethod
    def from_wire(wire):
        """Rebuild the typed request a wire dict describes.

        Raises :class:`ApiError` on a wrong schema tag, an incompatible
        version, or an unregistered verb; unknown payload keys are dropped.
        """
        if not isinstance(wire, dict):
            raise ApiError("request wire object must be a dict, got %r" % type(wire).__name__)
        if wire.get("schema") != REQUEST_SCHEMA:
            raise ApiError("not a %s object (schema=%r)" % (REQUEST_SCHEMA, wire.get("schema")))
        version = wire.get("version")
        if not isinstance(version, int) or version < 1:
            raise ApiError("bad request version %r" % (version,))
        verb = wire.get("verb")
        cls = REQUEST_TYPES.get(verb)
        if cls is None:
            raise ApiError(
                "unsupported verb %r (choose from %s)" % (verb, ", ".join(sorted(REQUEST_TYPES)))
            )
        payload = wire.get("payload") or {}
        if not isinstance(payload, dict):
            raise ApiError("request payload must be a dict, got %r" % type(payload).__name__)
        names = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in payload.items() if k in names}
        try:
            request = cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ApiError("bad %s payload: %s" % (verb, exc)) from exc
        return request


@dataclass
class CompileRequest(Request):
    """``repro emit``: compile mini-C source and render the pipeline.

    The *source text* travels in the request (clients read their local
    files), so a daemon never touches client paths for inputs.
    """

    VERB = "emit"

    source: str = ""
    name: str = None
    stages: int = 4
    passes: str = None  # comma-separated subset, CLI-style; None = all
    fmt: str = "c"  # c | ir | summary | diagram
    verify_each: bool = False


@dataclass
class LintRequest(Request):
    """``repro lint``: static pipeline-safety diagnostics for kernels.

    ``source``/``file`` describe an inline kernel (content + display
    label); ``bench`` names a shipped benchmark kernel (``"all"`` sweeps
    every one). Either or both, exactly like the CLI.
    """

    VERB = "lint"

    source: str = None
    file: str = None  # display label for the inline source target
    name: str = None
    bench: str = None
    stages: int = 4
    passes: str = None
    verify_each: bool = False
    json: bool = False
    #: Also run the static performance model (PHL4xx advisories).
    perf: bool = False


@dataclass
class RunRequest(Request):
    """``repro demo``: one benchmark, all comparison variants, one input."""

    VERB = "demo"

    bench: str = "bfs"
    size: int = 4000
    seed: int = 1
    stages: int = 4


@dataclass
class SearchRequest(Request):
    """``repro search``: the profile-guided pipeline search."""

    VERB = "search"

    bench: str = "bfs"
    #: Prune statically-dominated candidates before simulation (the
    #: analytic throughput model ranks them; only the top quartile runs).
    prune_static: bool = False


@dataclass
class TraceRequest(Request):
    """``repro trace``: one traced run plus the timeline summary.

    Output paths (``trace_out``/``metrics_out``) are resolved where the
    request executes — the daemon writes server-side files, which is the
    point of a unix-socket service sharing the machine with its clients.
    """

    VERB = "trace"

    bench: str = "bfs"
    size: int = 4000
    seed: int = 1
    stages: int = 4
    trace_out: str = None
    metrics_out: str = None
    profile_passes: bool = False
    quiet: bool = False


@dataclass
class MetricsRequest(Request):
    """``repro metrics``: the comparison suite as structured RunRecords."""

    VERB = "metrics"

    bench: str = "bfs"
    size: int = 4000
    seed: int = 1
    stages: int = 4
    jobs: int = None
    metrics_out: str = None
    profile_passes: bool = False
    quiet: bool = False


@dataclass
class ReportRequest(Request):
    """``repro report``: aggregate a results directory into one report.

    ``results_dir`` (and the optional extra ``baseline`` file) are
    resolved where the request executes — like :class:`TraceRequest`
    output paths, a daemon reads server-side files, which is the point of
    a unix-socket service sharing the machine with its clients. ``out``/
    ``html_out`` write the rendered report(s) server-side; with neither
    set, the markdown rendering is the stdout payload.
    """

    VERB = "report"

    results_dir: str = ""
    title: str = None
    baseline: str = "BENCH_pipette.json"
    out: str = None  # write markdown here instead of stdout
    html_out: str = None  # also write the single-file HTML page here
    quiet: bool = False


@dataclass
class BenchPerfRequest(Request):
    """``repro bench perf``: the simulator perf-regression harness."""

    VERB = "bench-perf"

    benches: tuple = ()
    scale: str = "quick"  # quick | full
    #: Engine selection: an engine name, ``"all"``, or None for the engine
    #: runs use by default (``resolve_engine``: batch). The reference
    #: interpreter always runs — it is the conformance oracle and speedup
    #: denominator.
    engine: str = None
    repeats: int = 2
    jobs: int = None
    baseline: str = "BENCH_pipette.json"
    check_baseline: bool = False
    update_baseline: bool = False
    threshold: float = 0.25
    strict: bool = False
    json: bool = False
    metrics_out: str = None
    quiet: bool = False

    def __post_init__(self):
        self.benches = tuple(self.benches)


#: Verb -> request class, the dispatch registry for the wire decoder.
REQUEST_TYPES = {
    cls.VERB: cls
    for cls in (
        CompileRequest,
        LintRequest,
        RunRequest,
        SearchRequest,
        TraceRequest,
        MetricsRequest,
        BenchPerfRequest,
        ReportRequest,
    )
}


# ---------------------------------------------------------------------------
# Responses


@dataclass
class Response:
    """Base response: the one-shot result of any verb.

    ``output`` is the verb's stdout payload, byte-identical to the
    pre-service CLI; ``records`` the structured stream (RunRecords, diag
    dicts, perf records) the daemon forwards as JSONL; ``cache`` the
    :mod:`repro.cache` hit/miss *delta over this request* per layer, so a
    warm shared-cache hit is visible to the client; ``error`` a structured
    ``{"code", "message"}`` dict when the request was rejected or failed.
    """

    verb: str = ""
    exit_code: int = 0
    output: str = ""
    records: list = field(default_factory=list)
    cache: dict = None
    error: dict = None

    @property
    def ok(self):
        """True when the request completed with exit code 0 and no error."""
        return self.exit_code == 0 and self.error is None

    def to_wire(self):
        """The JSON-serializable wire dict for this response."""
        return {
            "schema": RESPONSE_SCHEMA,
            "version": API_VERSION,
            "type": type(self).__name__,
            "payload": dataclasses.asdict(self),
        }

    @staticmethod
    def from_wire(wire):
        """Rebuild the typed response a wire dict describes."""
        if not isinstance(wire, dict):
            raise ApiError("response wire object must be a dict, got %r" % type(wire).__name__)
        if wire.get("schema") != RESPONSE_SCHEMA:
            raise ApiError("not a %s object (schema=%r)" % (RESPONSE_SCHEMA, wire.get("schema")))
        cls = RESPONSE_TYPES.get(wire.get("type"), Response)
        payload = wire.get("payload") or {}
        names = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in payload.items() if k in names}
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ApiError("bad %s payload: %s" % (wire.get("type"), exc)) from exc


@dataclass
class CompileResponse(Response):
    """``emit`` result; ``summary`` is the one-line pipeline description."""

    summary: str = None


@dataclass
class LintResponse(Response):
    """``lint`` result; ``records`` are the diagnostics, with totals here."""

    errors: int = 0
    warnings: int = 0


@dataclass
class RunResponse(Response):
    """``demo`` result; ``speedup`` is phloem-static over serial."""

    speedup: float = None


@dataclass
class SearchResponse(Response):
    """``search`` result; ``best`` summarizes the winning candidate."""

    best: dict = None


@dataclass
class TraceResponse(Response):
    """``trace`` result; ``cycles`` is the traced pipeline's cycle count."""

    cycles: float = None


@dataclass
class MetricsResponse(Response):
    """``metrics`` result; the RunRecords ride in ``records``."""


@dataclass
class BenchPerfResponse(Response):
    """``bench perf`` result; ``aggregate`` is the headline speedup rollup."""

    aggregate: dict = None


@dataclass
class ReportResponse(Response):
    """``report`` result; ``summary`` is the schema-stamped section census."""

    summary: dict = None


#: Response type tag -> class, for the wire decoder.
RESPONSE_TYPES = {
    cls.__name__: cls
    for cls in (
        Response,
        CompileResponse,
        LintResponse,
        RunResponse,
        SearchResponse,
        TraceResponse,
        MetricsResponse,
        BenchPerfResponse,
        ReportResponse,
    )
}

#: Verb -> response class used by the handler layer.
RESPONSE_FOR_VERB = {
    "emit": CompileResponse,
    "lint": LintResponse,
    "demo": RunResponse,
    "search": SearchResponse,
    "trace": TraceResponse,
    "metrics": MetricsResponse,
    "bench-perf": BenchPerfResponse,
    "report": ReportResponse,
}


def error_response(verb, code, message, exit_code=1):
    """A structured failure :class:`Response` (rejections, worker crashes)."""
    return Response(
        verb=verb or "",
        exit_code=exit_code,
        output="",
        records=[],
        cache=None,
        error={"code": code, "message": message},
    )
