"""Live daemon telemetry: the one ledger of what the daemon serves.

Per-verb request/outcome counters, the requests refused before a verb was
known, which path answered each admitted request (the event loop or a pool
worker), request latency histograms, in-flight and rejection gauges,
connection counters, and the cache deltas the responses carry, all recorded
in the daemon's request path. Nothing else counts requests: the ``stats``
reply's ``counts``, ``verbs``, ``uptime_s``, ``cache`` and
``governor.rejected`` are views of this snapshot. It is exported three ways
that must agree:

* the extended ``stats`` control reply (``"telemetry"`` key) and the
  dedicated ``telemetry`` control action, as a plain-data snapshot
  (schema :data:`TELEMETRY_SCHEMA`, version :data:`TELEMETRY_VERSION`,
  same compatibility policy as every other wire object: additions never
  bump the version, consumers ignore unknown keys);
* Prometheus-style text exposition (:func:`render_prometheus`), so a
  stock scraper can watch a daemon with zero glue code — and
  :func:`parse_prometheus` reads that text back, which pins the format in
  tests;
* the experiment report (:mod:`repro.obs.report`), which renders a saved
  snapshot next to offline RunRecords so a served session and a one-shot
  experiment read identically.

Histogram buckets are **fixed log-scale boundaries** (1–2–5 per decade,
:data:`LATENCY_BUCKETS_S`) rather than anything adaptive: two daemons —
or one daemon before and after a restart — always bucket the same
latency the same way, so snapshots diff cleanly and dashboards never
re-bin. The clock is injectable so tests drive time by hand.
"""

import time

#: Schema identity stamped on every telemetry snapshot.
TELEMETRY_SCHEMA = "repro.service/telemetry"
TELEMETRY_VERSION = 1

#: Histogram bucket upper bounds in seconds: a 1-2-5 log scale from 100 us
#: (a warm request answered in the event loop takes a few hundred) to 60 s.
#: Values above the last bound land in the +Inf bucket. Fixed forever
#: (determinism contract) — widening means adding bounds, which never bumps
#: the version because consumers key buckets by bound.
LATENCY_BUCKETS_S = (
    0.0001, 0.0002, 0.0005,
    0.001, 0.002, 0.005,
    0.01, 0.02, 0.05,
    0.1, 0.2, 0.5,
    1.0, 2.0, 5.0,
    10.0, 30.0, 60.0,
)

#: Request outcomes a verb's counter row distinguishes.
OUTCOMES = ("completed", "failed", "rejected")

#: Where an admitted request was answered: in the daemon's event loop (a
#: warm request of a memoized verb) or on a pool worker.
PATHS = ("loop", "pool")


class LatencyHistogram:
    """Counts of observations against :data:`LATENCY_BUCKETS_S`.

    Cumulative on export (Prometheus ``le`` semantics), plain per-bucket
    counts internally. ``sum`` and ``count`` ride along so mean latency
    and rates need no raw samples.
    """

    __slots__ = ("counts", "count", "total_s")

    def __init__(self):
        self.counts = [0] * (len(LATENCY_BUCKETS_S) + 1)  # +1: the +Inf bucket
        self.count = 0
        self.total_s = 0.0

    def observe(self, seconds):
        """Record one latency observation (seconds, not cycles)."""
        seconds = max(0.0, float(seconds))
        index = len(LATENCY_BUCKETS_S)
        for i, bound in enumerate(LATENCY_BUCKETS_S):
            if seconds <= bound:
                index = i
                break
        self.counts[index] += 1
        self.count += 1
        self.total_s += seconds

    def quantile(self, q):
        """Estimated ``q``-quantile (0..1) from the bucket boundaries.

        Returns the upper bound of the bucket holding the ``q``-th
        observation (the last finite bound for the +Inf bucket), or 0.0
        with no observations — a deterministic, conservative estimate.
        """
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank and seen > 0:
                bounds_i = min(i, len(LATENCY_BUCKETS_S) - 1)
                return LATENCY_BUCKETS_S[bounds_i]
        return LATENCY_BUCKETS_S[-1]

    def snapshot(self):
        """Plain data: cumulative ``le`` buckets plus count/sum/quantiles."""
        cumulative = []
        running = 0
        for bound, bucket_count in zip(LATENCY_BUCKETS_S, self.counts):
            running += bucket_count
            cumulative.append({"le": bound, "count": running})
        cumulative.append({"le": "+Inf", "count": self.count})
        return {
            "buckets": cumulative,
            "count": self.count,
            "sum_s": round(self.total_s, 6),
            "p50_s": self.quantile(0.50),
            "p90_s": self.quantile(0.90),
            "p99_s": self.quantile(0.99),
        }


class _VerbStats:
    """One verb's counters and latency histogram."""

    __slots__ = ("requests", "outcomes", "paths", "latency")

    def __init__(self):
        self.requests = 0
        self.outcomes = {outcome: 0 for outcome in OUTCOMES}
        self.paths = {path: 0 for path in PATHS}
        self.latency = LatencyHistogram()


class ServiceTelemetry:
    """Everything the daemon records about its own request traffic.

    One instance per daemon; all mutation happens on the event loop
    thread, so there is no locking. Latency windows open at admission
    (:meth:`begin`) and close when the terminal response has been written
    (:meth:`finish`) — the measured interval is what the *client* waited,
    pool queueing included.
    """

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.started = clock()
        self.verbs = {}
        self.unrouted = 0
        self.in_flight = 0
        self.in_flight_peak = 0
        self.rejections = {}
        self.cache_totals = {}
        self.connections_opened = 0
        self.connections_open = 0

    def _verb(self, verb):
        stats = self.verbs.get(verb)
        if stats is None:
            stats = self.verbs[verb] = _VerbStats()
        return stats

    # -- request-path hooks --------------------------------------------------

    def begin(self, verb):
        """An admitted request starts executing; returns its start stamp."""
        stats = self._verb(verb)
        stats.requests += 1
        self.in_flight += 1
        if self.in_flight > self.in_flight_peak:
            self.in_flight_peak = self.in_flight
        return self.clock()

    def finish(self, verb, started, failed=False, path="pool"):
        """The terminal response for an admitted request went out; ``path``
        (one of :data:`PATHS`) is where it was answered."""
        stats = self._verb(verb)
        stats.outcomes["failed" if failed else "completed"] += 1
        stats.paths[path] += 1
        stats.latency.observe(self.clock() - started)
        self.in_flight = max(0, self.in_flight - 1)

    def unrouted_request(self):
        """A request refused before a verb was known: a verb or client that is
        not a string, or a verb no handler serves."""
        self.unrouted += 1

    def connection_opened(self):
        """A client connected (it may send any number of requests)."""
        self.connections_opened += 1
        self.connections_open += 1

    def connection_closed(self):
        """A client connection ended, whichever side closed it."""
        self.connections_open -= 1

    def rejected(self, verb, code):
        """An admission rejection (rate limit / quota), by error code."""
        stats = self._verb(verb)
        stats.requests += 1
        stats.outcomes["rejected"] += 1
        self.rejections[code] = self.rejections.get(code, 0) + 1

    def cache_delta(self, delta):
        """Fold one request's per-layer cache hit/miss delta into totals."""
        for layer, counts in (delta or {}).items():
            totals = self.cache_totals.setdefault(layer, {"hits": 0, "misses": 0})
            totals["hits"] += counts.get("hits", 0)
            totals["misses"] += counts.get("misses", 0)

    # -- export --------------------------------------------------------------

    def snapshot(self):
        """The versioned plain-data snapshot (wire/report/scrape source)."""
        verbs = {}
        for verb in sorted(self.verbs):
            stats = self.verbs[verb]
            verbs[verb] = {
                "requests": stats.requests,
                "outcomes": dict(stats.outcomes),
                "paths": dict(stats.paths),
                "latency": stats.latency.snapshot(),
            }
        cache = {}
        for layer in sorted(self.cache_totals):
            counts = self.cache_totals[layer]
            total = counts["hits"] + counts["misses"]
            cache[layer] = {
                "hits": counts["hits"],
                "misses": counts["misses"],
                "hit_rate": round(counts["hits"] / total, 6) if total else 0.0,
            }
        return {
            "schema": TELEMETRY_SCHEMA,
            "version": TELEMETRY_VERSION,
            "uptime_s": round(self.clock() - self.started, 3),
            "unrouted": self.unrouted,
            "in_flight": self.in_flight,
            "in_flight_peak": self.in_flight_peak,
            "rejections": dict(sorted(self.rejections.items())),
            "connections": {"opened": self.connections_opened, "open": self.connections_open},
            "verbs": verbs,
            "cache": cache,
        }


# ---------------------------------------------------------------------------
# Prometheus text exposition


def _labels(pairs):
    if not pairs:
        return ""
    body = ",".join('%s="%s"' % (k, v) for k, v in pairs)
    return "{%s}" % body


def _fmt(value):
    # Integers print bare so the text is stable across snapshot round trips.
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def render_prometheus(snapshot, prefix="repro"):
    """The snapshot as Prometheus text exposition (version 0.0.4).

    Deterministic: verbs, layers, and label pairs are emitted sorted, so
    two renders of equal snapshots are byte-identical.
    """
    lines = []

    def metric(name, kind, help_text, samples):
        lines.append("# HELP %s_%s %s" % (prefix, name, help_text))
        lines.append("# TYPE %s_%s %s" % (prefix, name, kind))
        for suffix, pairs, value in samples:
            lines.append(
                "%s_%s%s%s %s" % (prefix, name, suffix, _labels(pairs), _fmt(value))
            )

    metric(
        "uptime_seconds", "gauge", "Seconds since the daemon started.",
        [("", (), snapshot.get("uptime_s", 0.0))],
    )
    metric(
        "in_flight_requests", "gauge", "Requests currently executing.",
        [("", (), snapshot.get("in_flight", 0))],
    )
    metric(
        "in_flight_peak_requests", "gauge", "High-water mark of concurrent requests.",
        [("", (), snapshot.get("in_flight_peak", 0))],
    )

    connections = snapshot.get("connections") or {}
    metric(
        "connections_total", "counter", "Client connections accepted.",
        [("", (), connections.get("opened", 0))],
    )
    metric(
        "open_connections", "gauge", "Client connections currently open.",
        [("", (), connections.get("open", 0))],
    )

    samples = []
    for verb in sorted(snapshot.get("verbs", {})):
        row = snapshot["verbs"][verb]
        for outcome in sorted(row.get("outcomes", {})):
            samples.append(
                ("", (("outcome", outcome), ("verb", verb)), row["outcomes"][outcome])
            )
    metric("requests_total", "counter", "Requests by verb and outcome.", samples)

    # A sibling family, not a third label on ``requests_total``: scrapers
    # (and :func:`parse_prometheus` callers) match that one's label sets
    # exactly, and a rejected request has no path.
    samples = []
    for verb in sorted(snapshot.get("verbs", {})):
        paths = snapshot["verbs"][verb].get("paths", {})
        for path in sorted(paths):
            samples.append(("", (("path", path), ("verb", verb)), paths[path]))
    metric(
        "requests_by_path_total", "counter",
        "Admitted requests by verb and where they were answered (event loop or pool).",
        samples,
    )

    samples = []
    for code in sorted(snapshot.get("rejections", {})):
        samples.append(("", (("code", code),), snapshot["rejections"][code]))
    metric("rejected_total", "counter", "Admission rejections by error code.", samples)
    metric(
        "unrouted_requests_total", "counter", "Requests refused before a verb was known.",
        [("", (), snapshot.get("unrouted", 0))],
    )

    samples = []
    for verb in sorted(snapshot.get("verbs", {})):
        latency = snapshot["verbs"][verb].get("latency") or {}
        for bucket in latency.get("buckets", []):
            le = bucket["le"]
            le_text = "+Inf" if le == "+Inf" else _fmt(le)
            samples.append(
                ("_bucket", (("le", le_text), ("verb", verb)), bucket["count"])
            )
        samples.append(("_sum", (("verb", verb),), latency.get("sum_s", 0.0)))
        samples.append(("_count", (("verb", verb),), latency.get("count", 0)))
    metric(
        "request_latency_seconds", "histogram",
        "Client-observed request latency by verb.", samples,
    )

    samples = []
    for layer in sorted(snapshot.get("cache", {})):
        counts = snapshot["cache"][layer]
        samples.append(("", (("layer", layer), ("result", "hit")), counts["hits"]))
        samples.append(("", (("layer", layer), ("result", "miss")), counts["misses"]))
    metric("cache_requests_total", "counter", "Shared-cache lookups by layer.", samples)

    return "\n".join(lines) + "\n"


def parse_prometheus(text):
    """Parse text exposition back to ``{(name, labels): value}``.

    ``labels`` is the sorted tuple of ``(key, value)`` pairs. Supports the
    subset :func:`render_prometheus` emits (no escapes inside label
    values); used by tests to pin the round trip and by the report module
    to ingest a scraped daemon.
    """
    samples = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if "{" in name_part:
            name, _, label_part = name_part.partition("{")
            label_body = label_part.rstrip("}")
            pairs = []
            for item in label_body.split(","):
                if not item:
                    continue
                key, _, raw = item.partition("=")
                pairs.append((key.strip(), raw.strip().strip('"')))
            labels = tuple(sorted(pairs))
        else:
            name, labels = name_part, ()
        samples[(name.strip(), labels)] = float(value_part)
    return samples
