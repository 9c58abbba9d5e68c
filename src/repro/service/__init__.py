"""Compile-and-simulate as a service.

The long-lived daemon behind ``repro serve``: an asyncio NDJSON socket
server (:mod:`repro.service.daemon`) executing :mod:`repro.api` requests
on a fork worker pool (:mod:`repro.service.pool`) over the shared
content-addressed :mod:`repro.cache`, with per-client token-bucket rate
limits and job quotas (:mod:`repro.service.ratelimit`). The wire format
lives in :mod:`repro.service.protocol`; the matching client in
:mod:`repro.client`. Request telemetry — per-verb counters, latency
histograms, Prometheus exposition — lives in
:mod:`repro.service.telemetry` and rides the ``stats``/``telemetry``
control actions.
"""

from .. import _lazy_exports

#: Re-exported name -> the submodule that defines it, resolved on first use
#: (like :mod:`repro`'s own): :mod:`repro.client` imports this package for
#: :mod:`~repro.service.protocol` alone and must not load the daemon, the
#: pool and, through them, asyncio, multiprocessing and the toolchain.
_EXPORTS = {
    "Daemon": "daemon",
    "serve_main": "daemon",
    "REJECTED_EXIT_CODE": "daemon",
    "RequestPool": "pool",
    "execute_wire": "pool",
    "TokenBucket": "ratelimit",
    "ClientGovernor": "ratelimit",
    "RATE_LIMITED": "ratelimit",
    "QUOTA_EXCEEDED": "ratelimit",
    "ServiceTelemetry": "telemetry",
    "LatencyHistogram": "telemetry",
    "LATENCY_BUCKETS_S": "telemetry",
    "TELEMETRY_SCHEMA": "telemetry",
    "TELEMETRY_VERSION": "telemetry",
    "render_prometheus": "telemetry",
    "parse_prometheus": "telemetry",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
