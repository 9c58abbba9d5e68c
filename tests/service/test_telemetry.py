"""Telemetry counters, latency histograms, and the Prometheus round trip."""

import json

from repro.service import (
    LATENCY_BUCKETS_S,
    TELEMETRY_SCHEMA,
    TELEMETRY_VERSION,
    LatencyHistogram,
    ServiceTelemetry,
    parse_prometheus,
    render_prometheus,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestLatencyHistogram:
    def test_buckets_are_fixed_log_scale(self):
        assert LATENCY_BUCKETS_S[0] == 0.0001
        assert LATENCY_BUCKETS_S[-1] == 60.0
        assert list(LATENCY_BUCKETS_S) == sorted(LATENCY_BUCKETS_S)

    def test_observation_lands_in_first_fitting_bucket(self):
        hist = LatencyHistogram()
        hist.observe(0.0015)  # > 1ms, <= 2ms
        assert hist.counts[LATENCY_BUCKETS_S.index(0.002)] == 1
        hist.observe(0.001)  # boundary values are inclusive (le semantics)
        assert hist.counts[LATENCY_BUCKETS_S.index(0.001)] == 1

    def test_overflow_lands_in_inf_bucket(self):
        hist = LatencyHistogram()
        hist.observe(3600.0)
        assert hist.counts[-1] == 1
        assert hist.snapshot()["buckets"][-1] == {"le": "+Inf", "count": 1}

    def test_negative_observation_clamped_to_zero(self):
        hist = LatencyHistogram()
        hist.observe(-5.0)
        assert hist.counts[0] == 1
        assert hist.total_s == 0.0

    def test_snapshot_buckets_are_cumulative(self):
        hist = LatencyHistogram()
        for seconds in (0.0005, 0.003, 0.003, 0.3):
            hist.observe(seconds)
        snapshot = hist.snapshot()
        counts = [b["count"] for b in snapshot["buckets"]]
        assert counts == sorted(counts), "le buckets must be monotone"
        assert snapshot["buckets"][-1]["count"] == 4
        assert snapshot["count"] == 4
        assert snapshot["sum_s"] == round(0.0005 + 0.003 + 0.003 + 0.3, 6)

    def test_quantiles_are_bucket_bounds(self):
        hist = LatencyHistogram()
        for _ in range(99):
            hist.observe(0.008)  # -> 0.01 bucket
        hist.observe(4.0)  # -> 5.0 bucket
        snapshot = hist.snapshot()
        assert snapshot["p50_s"] == 0.01
        assert snapshot["p90_s"] == 0.01
        assert snapshot["p99_s"] == 0.01
        assert hist.quantile(1.0) == 5.0

    def test_empty_histogram_quantile_is_zero(self):
        assert LatencyHistogram().quantile(0.5) == 0.0


class TestServiceTelemetry:
    def test_begin_finish_counts_and_measures(self):
        clock = FakeClock()
        telemetry = ServiceTelemetry(clock=clock)
        started = telemetry.begin("metrics")
        assert telemetry.in_flight == 1
        clock.advance(0.05)
        telemetry.finish("metrics", started)
        assert telemetry.in_flight == 0
        row = telemetry.snapshot()["verbs"]["metrics"]
        assert row["requests"] == 1
        assert row["outcomes"] == {"completed": 1, "failed": 0, "rejected": 0}
        assert row["latency"]["count"] == 1
        assert row["latency"]["sum_s"] == 0.05

    def test_failed_outcome_recorded(self):
        clock = FakeClock()
        telemetry = ServiceTelemetry(clock=clock)
        telemetry.finish("emit", telemetry.begin("emit"), failed=True)
        outcomes = telemetry.snapshot()["verbs"]["emit"]["outcomes"]
        assert outcomes["failed"] == 1 and outcomes["completed"] == 0

    def test_paths_say_where_a_request_was_answered(self):
        telemetry = ServiceTelemetry(clock=FakeClock())
        telemetry.finish("emit", telemetry.begin("emit"))  # the pool unless told otherwise
        telemetry.finish("emit", telemetry.begin("emit"), path="loop")
        telemetry.finish("emit", telemetry.begin("emit"), failed=True, path="loop")
        telemetry.rejected("emit", "rate-limited")  # never admitted: no path
        row = telemetry.snapshot()["verbs"]["emit"]
        assert row["paths"] == {"loop": 2, "pool": 1}
        assert row["requests"] == 4

    def test_rejection_counts_by_code(self):
        telemetry = ServiceTelemetry(clock=FakeClock())
        telemetry.rejected("demo", "rate-limited")
        telemetry.rejected("demo", "rate-limited")
        telemetry.rejected("emit", "quota-exceeded")
        snapshot = telemetry.snapshot()
        assert snapshot["rejections"] == {"quota-exceeded": 1, "rate-limited": 2}
        assert snapshot["verbs"]["demo"]["outcomes"]["rejected"] == 2
        # Rejected requests never open a latency window.
        assert snapshot["verbs"]["demo"]["latency"]["count"] == 0

    def test_unrouted_requests_are_counted_apart_from_verbs(self):
        telemetry = ServiceTelemetry(clock=FakeClock())
        telemetry.unrouted_request()
        telemetry.unrouted_request()
        snapshot = telemetry.snapshot()
        assert snapshot["unrouted"] == 2
        assert snapshot["verbs"] == {}
        samples = parse_prometheus(render_prometheus(snapshot))
        assert samples[("repro_unrouted_requests_total", ())] == 2
        # A snapshot saved before the key existed still renders.
        del snapshot["unrouted"]
        samples = parse_prometheus(render_prometheus(snapshot))
        assert samples[("repro_unrouted_requests_total", ())] == 0

    def test_in_flight_peak_is_high_water_mark(self):
        clock = FakeClock()
        telemetry = ServiceTelemetry(clock=clock)
        a = telemetry.begin("demo")
        b = telemetry.begin("demo")
        telemetry.finish("demo", a)
        telemetry.finish("demo", b)
        snapshot = telemetry.snapshot()
        assert snapshot["in_flight"] == 0
        assert snapshot["in_flight_peak"] == 2

    def test_connections_count_opened_and_open(self):
        telemetry = ServiceTelemetry(clock=FakeClock())
        telemetry.connection_opened()
        telemetry.connection_opened()
        telemetry.connection_closed()
        snapshot = telemetry.snapshot()
        assert snapshot["connections"] == {"opened": 2, "open": 1}
        samples = parse_prometheus(render_prometheus(snapshot))
        assert samples[("repro_connections_total", ())] == 2
        assert samples[("repro_open_connections", ())] == 1
        # A snapshot saved before the key existed still renders.
        del snapshot["connections"]
        assert parse_prometheus(render_prometheus(snapshot))[("repro_connections_total", ())] == 0

    def test_uptime_tracks_injected_clock(self):
        clock = FakeClock()
        telemetry = ServiceTelemetry(clock=clock)
        clock.advance(12.5)
        assert telemetry.snapshot()["uptime_s"] == 12.5

    def test_cache_deltas_fold_into_totals(self):
        telemetry = ServiceTelemetry(clock=FakeClock())
        telemetry.cache_delta({"pipeline": {"hits": 1, "misses": 1}})
        telemetry.cache_delta({"pipeline": {"hits": 3, "misses": 0}})
        telemetry.cache_delta(None)  # requests without a delta are fine
        cache = telemetry.snapshot()["cache"]
        assert cache["pipeline"] == {"hits": 4, "misses": 1, "hit_rate": 0.8}

    def test_snapshot_is_schema_stamped_and_json_clean(self):
        telemetry = ServiceTelemetry(clock=FakeClock())
        telemetry.finish("metrics", telemetry.begin("metrics"))
        snapshot = telemetry.snapshot()
        assert snapshot["schema"] == TELEMETRY_SCHEMA
        assert snapshot["version"] == TELEMETRY_VERSION
        json.dumps(snapshot)  # must serialize as-is


class TestPrometheus:
    def _snapshot(self):
        clock = FakeClock()
        telemetry = ServiceTelemetry(clock=clock)
        started = telemetry.begin("metrics")
        clock.advance(0.03)
        telemetry.finish("metrics", started)
        telemetry.finish("emit", telemetry.begin("emit"), failed=True)
        telemetry.rejected("demo", "rate-limited")
        telemetry.cache_delta({"pipeline": {"hits": 2, "misses": 1}})
        return telemetry.snapshot()

    def test_round_trips_through_parser(self):
        snapshot = self._snapshot()
        samples = parse_prometheus(render_prometheus(snapshot))
        assert samples[("repro_uptime_seconds", ())] == snapshot["uptime_s"]
        assert samples[
            ("repro_requests_total", (("outcome", "completed"), ("verb", "metrics")))
        ] == 1
        assert samples[
            ("repro_requests_total", (("outcome", "failed"), ("verb", "emit")))
        ] == 1
        assert samples[("repro_rejected_total", (("code", "rate-limited"),))] == 1
        assert samples[
            ("repro_request_latency_seconds_count", (("verb", "metrics"),))
        ] == 1
        assert samples[
            ("repro_request_latency_seconds_bucket", (("le", "+Inf"), ("verb", "metrics")))
        ] == 1
        assert samples[
            ("repro_cache_requests_total", (("layer", "pipeline"), ("result", "hit")))
        ] == 2

    def test_request_paths_are_a_sibling_family_of_requests_total(self):
        clock = FakeClock()
        telemetry = ServiceTelemetry(clock=clock)
        telemetry.finish("emit", telemetry.begin("emit"), path="loop")
        telemetry.finish("demo", telemetry.begin("demo"))
        snapshot = telemetry.snapshot()
        samples = parse_prometheus(render_prometheus(snapshot))
        assert samples[("repro_requests_by_path_total", (("path", "loop"), ("verb", "emit")))] == 1
        assert samples[("repro_requests_by_path_total", (("path", "pool"), ("verb", "emit")))] == 0
        assert samples[("repro_requests_by_path_total", (("path", "pool"), ("verb", "demo")))] == 1
        # requests_total keeps exactly its (outcome, verb) label sets.
        assert samples[
            ("repro_requests_total", (("outcome", "completed"), ("verb", "emit")))
        ] == 1
        # A snapshot saved before the key existed still renders.
        del snapshot["verbs"]["emit"]["paths"]
        assert "repro_requests_by_path_total" in render_prometheus(snapshot)

    def test_histogram_buckets_cover_every_bound(self):
        samples = parse_prometheus(render_prometheus(self._snapshot()))
        bounds = {
            labels[0][1]
            for (name, labels) in samples
            if name == "repro_request_latency_seconds_bucket"
            and dict(labels)["verb"] == "metrics"
        }
        assert "+Inf" in bounds
        assert len(bounds) == len(LATENCY_BUCKETS_S) + 1

    def test_render_is_deterministic(self):
        snapshot = self._snapshot()
        assert render_prometheus(snapshot) == render_prometheus(snapshot)
        # And stable across a JSON round trip of the snapshot itself.
        assert render_prometheus(json.loads(json.dumps(snapshot))) == render_prometheus(
            snapshot
        )

    def test_help_and_type_lines_present(self):
        text = render_prometheus(self._snapshot())
        assert "# HELP repro_request_latency_seconds " in text
        assert "# TYPE repro_request_latency_seconds histogram" in text
        assert "# TYPE repro_requests_total counter" in text
