"""Typed, versioned request/response values for the compile-and-simulate API.

Every CLI verb (and every daemon job) is described by one frozen-shape
request class (a :class:`Request` subclass) and answered by one
:class:`Response` class. The request class is the *only* declaration of
its verb: it carries the verb, its subcommand path, its ``--help`` line
and its response class, and each annotated field carries its default plus
its CLI spelling (:func:`arg`). The argparse subparser, the argv ->
request builder and the wire-payload checks are all read off that one
table, so they cannot disagree. Every cold ``repro emit`` loads this
module, so it imports no toolchain code and no :mod:`dataclasses`:
:class:`Message` reads each class's annotated fields once, when the class
is defined.

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
carries the structured results (RunRecords, diagnostics, perf records),
inside the one line the daemon answers a request with.
"""

from ..errors import PhloemError

#: Schema identities stamped on every wire object.
REQUEST_SCHEMA = "repro.api/request"
RESPONSE_SCHEMA = "repro.api/response"
API_VERSION = 1

#: Verb -> request class and response type tag -> class: the dispatch
#: registries of the wire decoders, filled as subclasses are defined.
REQUEST_TYPES = {}
RESPONSE_TYPES = {}


class ApiError(PhloemError):
    """A malformed or unsupported API request/response wire object."""


class Field:
    """One declared field of a :class:`Message`: its ``default`` and, for a
    request, its CLI spelling (``metadata``, see :func:`arg`). The class
    body's annotation gives its ``name`` and ``type``."""

    __slots__ = ("name", "type", "default", "metadata")

    def __init__(self, default=None, metadata=None):
        self.default = default
        self.metadata = metadata or {}


class Message:
    """Base of requests and responses: a plain value whose fields are its
    class's annotated attributes, ``name: type = default`` (or ``=
    arg(...)``), inherited fields first.

    ``__init_subclass__`` reads them once into :attr:`FIELDS`, and the
    keyword constructor, ``==``, :meth:`replace` and the wire payload
    (:meth:`fields`) all read that tuple. A ``tuple`` field holds a tuple
    however it arrived (argv list, JSON list); a ``list`` default is copied
    per instance.
    """

    FIELDS = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = []
        for name, annotation in cls.__dict__.get("__annotations__", {}).items():
            declared = cls.__dict__[name]
            f = declared if isinstance(declared, Field) else Field(declared)
            f.name, f.type = name, annotation
            setattr(cls, name, f.default)
            own.append(f)
        cls.FIELDS = cls.FIELDS + tuple(own)

    def __init__(self, **values):
        for f in self.FIELDS:
            value = values.pop(f.name, f.default)
            if f.type is tuple:
                value = tuple(value)
            elif value is f.default and type(value) is list:
                value = list(value)
            setattr(self, f.name, value)
        if values:
            raise TypeError(
                "%s() got an unexpected keyword argument %r" % (type(self).__name__, min(values))
            )

    def fields(self):
        """``{name: value}`` of every field, in declaration order (shallow:
        the values are this message's own)."""
        return {f.name: getattr(self, f.name) for f in self.FIELDS}

    def replace(self, **changes):
        """A copy with ``changes`` applied."""
        return type(self)(**dict(self.fields(), **changes))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.fields() == other.fields()

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % item for item in self.fields().items()),
        )


# ---------------------------------------------------------------------------
# Responses


class Response(Message):
    """Base response: the one-shot result of any verb.

    ``output`` is the verb's stdout payload, byte-identical to the
    pre-service CLI; ``records`` the structured results (RunRecords, diag
    dicts, perf records) ``repro submit --stream`` prints as JSONL;
    ``cache`` the :mod:`repro.cache` hit/miss *delta over this request* per
    layer, so a warm shared-cache hit is visible to the client; ``error`` a
    structured ``{"code", "message"}`` dict when the request was rejected
    or failed.
    """

    verb: str = ""
    exit_code: int = 0
    output: str = ""
    records: list = []
    cache: dict = None
    error: dict = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        RESPONSE_TYPES[cls.__name__] = cls

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
            "payload": self.fields(),
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
        names = {f.name for f in cls.FIELDS}
        return cls(**{k: v for k, v in payload.items() if k in names})


class CompileResponse(Response):
    """``emit`` result; ``summary`` is the one-line pipeline description."""

    summary: str = None


class LintResponse(Response):
    """``lint`` result; ``records`` are the diagnostics, with totals here."""

    errors: int = 0
    warnings: int = 0


class RunResponse(Response):
    """``demo`` result; ``speedup`` is phloem-static over serial."""

    speedup: float = None


class SearchResponse(Response):
    """``search`` result; ``best`` summarizes the winning candidate."""

    best: dict = None


class FiguresResponse(Response):
    """``figures`` result; the RunRecords of every figure that ran ride in
    ``records``."""


class TraceResponse(Response):
    """``trace`` result; ``cycles`` is the traced pipeline's cycle count."""

    cycles: float = None


class MetricsResponse(Response):
    """``metrics`` result; the RunRecords ride in ``records``."""


class BenchPerfResponse(Response):
    """``bench perf`` result; ``aggregate`` is the headline speedup rollup."""

    aggregate: dict = None


class ReportResponse(Response):
    """``report`` result; ``summary`` is the schema-stamped section census."""

    summary: dict = None


def error_response(verb, code, message, exit_code=1):
    """A structured failure :class:`Response` (rejections, worker crashes)."""
    return Response(
        verb=verb or "", exit_code=exit_code, error={"code": code, "message": message}
    )


# ---------------------------------------------------------------------------
# Requests


def arg(default=None, help=None, **spelling):
    """A request field: its default plus its CLI spelling as field metadata.

    The flag is ``--field-name``, typed by the annotation (``bool`` is a
    ``store_true`` switch), defaulting to ``default`` and described by
    ``help``. ``spelling`` holds only what differs from that:

    * ``flag`` — another argparse name (``--format`` for ``fmt``);
    * ``positional`` — a bare positional instead of a ``--flag``;
    * ``metavar``, ``nargs`` — passed through to argparse;
    * ``choices`` — a tuple, or a zero-argument callable resolved on use
      (so the choice list may live in a module this one does not import);
    * ``switches`` — ``{"--flag": help}`` ``store_true`` switches that stand
      in for the field; the class's ``from_args`` folds them into a value;
    * ``cli=False`` — a wire-only field with no flag at all.
    """
    return Field(default, dict(spelling, help=help))


def _choices(f):
    """The resolved choice tuple of field ``f``, or None when it has none."""
    choices = f.metadata.get("choices")
    return choices() if callable(choices) else choices


#: JSON value types accepted for a field annotation, where not the annotation.
_WIRE_TYPES = {float: (int, float), tuple: (list, tuple)}


def _check_wire(verb, f, value):
    """Validate one present payload value against field ``f``'s declaration."""
    expected = "list" if f.type is tuple else f.type.__name__
    if value is None:
        ok = f.default is None
    else:
        # A JSON bool is not a number, though Python's is an int.
        ok = isinstance(value, _WIRE_TYPES.get(f.type, f.type)) and (
            isinstance(value, bool) == (f.type is bool)
        )
        choices = _choices(f)
        if ok and choices is not None and value not in choices:
            ok, expected = False, "one of " + ", ".join(choices)
    if not ok:
        if f.default is None:
            expected += " or null"
        raise ApiError("bad %s payload: %s must be %s, got %r" % (verb, f.name, expected, value))
    return value


class Request(Message):
    """Base request: the argv and wire (de)serialization shared by every verb.

    A subclass sets :attr:`VERB`, :attr:`HELP` and :attr:`RESPONSE` and
    declares JSON-serializable fields with :func:`arg`. Defining it
    registers it in :data:`REQUEST_TYPES`, which is all the CLI parser,
    ``repro submit`` and the daemon's decoder read.
    """

    #: Class attributes, not fields: the verb on the wire, the subparser's
    #: ``help`` line, the response class, the subcommand path where it is
    #: not just ``(VERB,)``, and whether the verb's whole answer is
    #: memoized (:func:`repro.cache.cached_answer`) — such a request, when
    #: warm, is answered under ``cache.lookup_only()`` in the daemon's event
    #: loop instead of on a pool worker.
    VERB = None
    HELP = None
    RESPONSE = Response
    COMMAND = None
    MEMOIZED = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.VERB is not None:
            REQUEST_TYPES[cls.VERB] = cls

    @classmethod
    def _cli_fields(cls):
        """``(field, argparse name)`` for every field argv can set."""
        for f in cls.FIELDS:
            if f.metadata.get("cli", True):
                positional = f.metadata.get("positional")
                derived = f.name if positional else "--" + f.name.replace("_", "-")
                yield f, f.metadata.get("flag", derived)

    @classmethod
    def add_arguments(cls, parser):
        """Declare this verb's arguments on an argparse ``parser``."""
        for f, name in cls._cli_fields():
            meta = f.metadata
            if "switches" in meta:
                for flag, text in meta["switches"].items():
                    parser.add_argument(flag, action="store_true", help=text)
                continue
            kwargs = {"default": f.default, "help": meta.get("help")}
            if f.type is bool:
                kwargs["action"] = "store_true"
            else:
                if f.type in (int, float):
                    kwargs["type"] = f.type
                kwargs.update((k, meta[k]) for k in ("metavar", "nargs") if k in meta)
                if "choices" in meta:
                    kwargs["choices"] = _choices(f)
            parser.add_argument(name, **kwargs)

    @classmethod
    def from_args(cls, args):
        """The request a namespace parsed by :meth:`add_arguments` describes."""
        return cls(
            **{
                f.name: getattr(args, name.lstrip("-").replace("-", "_"))
                for f, name in cls._cli_fields()
                if "switches" not in f.metadata
            }
        )

    def to_wire(self):
        """The JSON-serializable wire dict for this request."""
        return {
            "schema": REQUEST_SCHEMA,
            "version": API_VERSION,
            "verb": self.VERB,
            "payload": self.fields(),
        }

    @staticmethod
    def from_wire(wire):
        """Rebuild the typed request a wire dict describes.

        Raises :class:`ApiError` on a wrong schema tag, an incompatible
        version, an unregistered verb, or a present payload key whose value
        the field's declaration rejects (wrong JSON type, ``null`` where the
        default is not ``None``, outside the declared choices). Unknown
        payload keys are dropped and missing ones take their defaults.
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
        return cls(
            **{
                f.name: _check_wire(verb, f, payload[f.name])
                for f in cls.FIELDS
                if f.name in payload
            }
        )


def _bench_names():
    from ..workloads import ALL_BENCHMARKS

    return tuple(sorted(ALL_BENCHMARKS))


def _engine_choices():
    from ..bench.perf import ENGINE_CHOICES

    return ENGINE_CHOICES


#: Shared by the verbs that take them: the default committed perf baseline
#: (resolved against the working directory) and the ``--quiet`` help line.
BASELINE_FILE = "BENCH_pipette.json"
QUIET_HELP = "silence stderr telemetry"


class CompileRequest(Request):
    """``repro emit``: compile mini-C source and render the pipeline.

    The *source text* travels in the request (clients read their local
    files), so a daemon never touches client paths for inputs.
    """

    VERB = "emit"
    HELP = "compile a mini-C kernel and print the pipeline"
    RESPONSE = CompileResponse
    MEMOIZED = True

    source: str = arg("", flag="file", positional=True)
    name: str = arg(None, "kernel name if the file has several")
    stages: int = arg(4)
    passes: str = arg(None, "comma-separated pass subset")
    fmt: str = arg("c", flag="--format", choices=("c", "ir", "summary", "diagram"))
    verify_each: bool = arg(
        False, "re-verify the IR and re-run the safety analyzer after every pass"
    )

    @classmethod
    def from_args(cls, args):
        """argv names the file; the request carries its text."""
        request = super().from_args(args)
        with open(args.file) as handle:
            request.source = handle.read()
        return request


class LintRequest(Request):
    """``repro lint``: static pipeline-safety diagnostics for kernels.

    ``source``/``file`` describe an inline kernel (content + display
    label); ``bench`` names a shipped benchmark kernel (``"all"`` sweeps
    every one). Either or both, exactly like the CLI.
    """

    VERB = "lint"
    HELP = "run the static pipeline-safety analyzer on a kernel"
    RESPONSE = LintResponse
    MEMOIZED = True

    source: str = arg(None, cli=False)
    file: str = arg(None, positional=True, nargs="?", metavar="FILE.c")
    name: str = arg(None, "kernel name if the file has several")
    bench: str = arg(
        None, "lint a shipped benchmark kernel instead of a file ('all' sweeps every one)",
        metavar="NAME",
    )
    stages: int = arg(4)
    passes: str = arg(None, "comma-separated pass subset")
    verify_each: bool = arg(
        False, "also verify after every compiler pass, not just the final pipeline"
    )
    json: bool = arg(False, "machine-readable diagnostics")
    perf: bool = arg(False, "also run the static performance model (PHL4xx advisories)")

    @classmethod
    def from_args(cls, args):
        """``file`` stays the display label; its text travels as ``source``."""
        request = super().from_args(args)
        if request.file is not None:
            with open(request.file) as handle:
                request.source = handle.read()
        return request


class _SyntheticInputRequest(Request):
    """The fields of the verbs that run one benchmark on one synthetic input."""

    bench: str = arg("bfs", positional=True, choices=_bench_names)
    size: int = arg(4000)
    seed: int = arg(1)
    stages: int = arg(4)


class RunRequest(_SyntheticInputRequest):
    """``repro demo``: one benchmark, all comparison variants, one input."""

    VERB = "demo"
    HELP = "run one benchmark across all variants"
    RESPONSE = RunResponse


class SearchRequest(Request):
    """``repro search``: the profile-guided pipeline search."""

    VERB = "search"
    HELP = "profile-guided pipeline search"
    RESPONSE = SearchResponse

    bench: str = arg("bfs", positional=True, choices=_bench_names)
    #: The analytic throughput model ranks the candidates; only the top
    #: quartile is simulated.
    prune_static: bool = arg(
        False, "drop statically-dominated candidates before any simulation"
    )


class FiguresRequest(Request):
    """``repro figures``: regenerate evaluation figures from the registry
    (:data:`repro.bench.experiments.FIGURES`); no names = the seven paper
    figures. ``metrics_out`` is resolved where the request executes."""

    VERB = "figures"
    HELP = "regenerate evaluation figures"
    RESPONSE = FiguresResponse

    names: tuple = arg((), positional=True, nargs="*", metavar="figN")
    jobs: int = arg(None, "worker processes for the harness (default: REPRO_JOBS env or 1)")
    quiet: bool = arg(False, "silence stderr telemetry (wall times, cache rates)")
    metrics_out: str = arg(
        None, "write structured RunRecords for the suites this run computed",
        metavar="FILE.jsonl",
    )


class TraceRequest(_SyntheticInputRequest):
    """``repro trace``: one traced run plus the timeline summary.

    Output paths (``trace_out``/``metrics_out``) are resolved where the
    request executes — the daemon writes server-side files, which is the
    point of a unix-socket service sharing the machine with its clients.
    """

    VERB = "trace"
    HELP = "run one benchmark with cycle-domain tracing on"
    RESPONSE = TraceResponse

    trace_out: str = arg(
        None, "write a Chrome trace-event file (open at ui.perfetto.dev)", metavar="FILE.json"
    )
    metrics_out: str = arg(
        None, "write RunRecords for the serial and traced runs", metavar="FILE.jsonl"
    )
    profile_passes: bool = arg(
        False, "instrument the compiler passes and print the timing table"
    )
    quiet: bool = arg(False, QUIET_HELP)


class BenchPerfRequest(Request):
    """``repro bench perf``: the simulator perf-regression harness."""

    VERB = "bench-perf"
    COMMAND = ("bench", "perf")
    HELP = "time the simulator itself: each engine vs the reference interpreter"
    RESPONSE = BenchPerfResponse

    benches: tuple = arg(
        (), "kernels to measure (default: every shipped benchmark)", positional=True,
        nargs="*", metavar="BENCH",
    )
    scale: str = arg(
        "quick",
        choices=("quick", "full"),
        switches={
            "--quick": "QUICK-scale inputs (the committed-baseline scale; the default)",
            "--full": "larger inputs for patient local measurement",
        },
    )
    #: None = the engine runs use by default (``resolve_engine``). The
    #: reference interpreter always runs — it is the conformance oracle and
    #: speedup denominator.
    engine: str = arg(
        None,
        "engine(s) to time against the reference interpreter "
        "(default: the engine runs use by default, batch; 'all' measures "
        "every engine)",
        choices=_engine_choices,
    )
    repeats: int = arg(
        2, "timed runs per engine; the minimum wall time is kept (default %(default)s)"
    )
    jobs: int = arg(None, "worker processes (cycles are unaffected; wall times contend)")
    baseline: str = arg(
        BASELINE_FILE, "baseline file (default: %(default)s in the working directory)",
        metavar="FILE.json",
    )
    check_baseline: bool = arg(
        False,
        "compare against the baseline: cycle changes are errors, wall-time regressions warn",
    )
    update_baseline: bool = arg(False, "write the fresh measurements to the baseline file")
    threshold: float = arg(
        0.25, "fractional wall-time tolerance before warning (default %(default)s)"
    )
    strict: bool = arg(
        False, "treat wall-time warnings as failures (off in CI: boxes are noisy)"
    )
    json: bool = arg(False, "JSON instead of the table")
    metrics_out: str = arg(
        None, "also write repro.obs RunRecords for each measured engine", metavar="FILE.jsonl"
    )
    quiet: bool = arg(False, QUIET_HELP)

    @classmethod
    def from_args(cls, args):
        """``--quick`` (the default) wins over ``--full``."""
        request = super().from_args(args)
        if args.full and not args.quick:
            request.scale = "full"
        return request


class MetricsRequest(_SyntheticInputRequest):
    """``repro metrics``: the comparison suite as structured RunRecords."""

    VERB = "metrics"
    HELP = "run the comparison suite and emit JSONL RunRecords"
    RESPONSE = MetricsResponse

    metrics_out: str = arg(
        None, "destination file (default: JSONL on stdout)", metavar="FILE.jsonl"
    )
    profile_passes: bool = arg(
        False, "attach compile-pass timings to the phloem-static records"
    )
    quiet: bool = arg(False, QUIET_HELP)


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
    HELP = "aggregate a results directory into one experiment report"
    RESPONSE = ReportResponse

    results_dir: str = arg(
        "",
        "directory of RunRecord JSONL, BENCH_*.json, lint JSON, "
        "timeline and telemetry snapshots",
        positional=True, metavar="DIR",
    )
    title: str = arg(None, "report heading")
    baseline: str = arg(
        BASELINE_FILE,
        "perf baseline whose history feeds the trajectory section "
        "(default: %(default)s; missing file is skipped)",
        metavar="FILE.json",
    )
    out: str = arg(None, "write markdown here instead of stdout", metavar="FILE.md")
    html_out: str = arg(None, "also write the single-file HTML page", metavar="FILE.html")
    quiet: bool = arg(False, QUIET_HELP)
