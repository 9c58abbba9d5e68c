"""The compile-and-simulate request/response API.

One typed request per CLI verb, one ``handle()`` entry point, one
versioned JSON wire format — the shared substrate under both frontends:

* the one-shot CLI (:mod:`repro.cli`) builds a request from argv, calls
  :func:`handle`, and prints ``Response.output`` verbatim;
* the long-lived daemon (:mod:`repro.service`) decodes the same wire
  objects off a socket, executes them on a fork worker pool over the
  shared content-addressed caches, and streams ``Response.records`` back
  as JSONL.

See :mod:`repro.api.requests` for the schema/versioning policy and
:mod:`repro.api.handlers` for the per-verb semantics.
"""

from .handlers import DEMO_VARIANTS, handle
from .requests import (
    API_VERSION,
    REQUEST_SCHEMA,
    REQUEST_TYPES,
    RESPONSE_SCHEMA,
    RESPONSE_TYPES,
    ApiError,
    BenchPerfRequest,
    BenchPerfResponse,
    CompileRequest,
    CompileResponse,
    FiguresRequest,
    FiguresResponse,
    LintRequest,
    LintResponse,
    MetricsRequest,
    MetricsResponse,
    ReportRequest,
    ReportResponse,
    Request,
    Response,
    RunRequest,
    RunResponse,
    SearchRequest,
    SearchResponse,
    TraceRequest,
    TraceResponse,
    error_response,
)

__all__ = [
    "API_VERSION",
    "REQUEST_SCHEMA",
    "RESPONSE_SCHEMA",
    "REQUEST_TYPES",
    "RESPONSE_TYPES",
    "ApiError",
    "Request",
    "Response",
    "CompileRequest",
    "CompileResponse",
    "LintRequest",
    "LintResponse",
    "RunRequest",
    "RunResponse",
    "SearchRequest",
    "SearchResponse",
    "FiguresRequest",
    "FiguresResponse",
    "TraceRequest",
    "TraceResponse",
    "MetricsRequest",
    "MetricsResponse",
    "BenchPerfRequest",
    "BenchPerfResponse",
    "ReportRequest",
    "ReportResponse",
    "error_response",
    "handle",
    "DEMO_VARIANTS",
]
