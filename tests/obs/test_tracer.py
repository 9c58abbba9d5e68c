"""Cycle-domain tracer: zero-impact when off, exact when on."""

import pytest

from repro.bench.harness import adapter_for
from repro.core.compiler import CompileOptions, compile_function
from repro.obs import Tracer, export_chrome_trace, validate_chrome_trace
from repro.pipette import Machine
from repro.runtime import executor
from repro.runtime.executor import run_pipeline, run_serial
from repro.workloads.graphs import uniform_random


@pytest.fixture(scope="module")
def bfs_setup():
    adapter = adapter_for("bfs")
    pipeline = compile_function(adapter.function(), options=CompileOptions(num_stages=4))
    arrays, scalars = adapter.env(uniform_random(300, 5, seed=3))
    return pipeline, arrays, scalars


def test_tracer_off_is_default_and_bufferless(bfs_setup, monkeypatch):
    pipeline, arrays, scalars = bfs_setup
    machines = []

    class Recorded(Machine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            machines.append(self)

    monkeypatch.setattr(executor, "Machine", Recorded)
    run_pipeline(pipeline, arrays, scalars)
    assert [machine.tracer for machine in machines] == [None]


def test_tracer_off_and_on_runs_are_identical(bfs_setup):
    """Tracing must be pure observation: same cycles, stats, and outputs."""
    pipeline, arrays, scalars = bfs_setup
    plain = run_pipeline(pipeline, arrays, scalars)
    tracer = Tracer()
    traced = run_pipeline(pipeline, arrays, scalars, tracer=tracer)
    assert traced.cycles == plain.cycles
    assert traced.arrays == plain.arrays
    assert traced.stats.summary() == plain.stats.summary()
    assert len(tracer) > 0


def test_stall_intervals_sum_to_thread_counters_exactly(bfs_setup):
    """Per-(thread, bucket) traced stall time == ThreadStats, tolerance 0."""
    pipeline, arrays, scalars = bfs_setup
    tracer = Tracer()
    result = run_pipeline(pipeline, arrays, scalars, tracer=tracer)
    totals = tracer.stall_totals()
    buckets = (
        ("mem", "mem_stall"),
        ("queue", "queue_stall"),
        ("branch", "branch_stall"),
        ("barrier", "barrier_stall"),
    )
    checked = 0
    for tstats in result.stats.threads:
        for bucket, attr in buckets:
            assert totals.get((tstats.name, bucket), 0.0) == getattr(tstats, attr)
            checked += 1
    assert checked > 0
    # The traced run exercised at least queue and mem stalls somewhere.
    stalled_buckets = {bucket for (_, bucket) in totals}
    assert "queue" in stalled_buckets


def test_serial_run_traces_too(bfs_setup):
    _, arrays, scalars = bfs_setup
    adapter = adapter_for("bfs")
    tracer = Tracer()
    result = run_serial(adapter.function(), arrays, scalars, tracer=tracer)
    assert result.cycles > 0
    assert len(tracer.spans) > 0


def test_chrome_export_validates_and_covers_all_tracks(bfs_setup):
    pipeline, arrays, scalars = bfs_setup
    tracer = Tracer()
    run_pipeline(pipeline, arrays, scalars, tracer=tracer)
    trace = export_chrome_trace(tracer)
    assert validate_chrome_trace(trace) == []
    events = trace["traceEvents"]
    named = {e["args"]["name"] for e in events if e["ph"] == "M" and e["name"] == "thread_name"}
    # One track per stage thread and RA engine...
    for thread in tracer.threads:
        assert thread in named
    # ...plus occupancy counter samples for every live queue.
    counter_names = {e["name"] for e in events if e["ph"] == "C"}
    for label in tracer.queues:
        assert "occupancy:%s" % label in counter_names


def test_queue_occupancy_counters_are_sampled(bfs_setup):
    pipeline, arrays, scalars = bfs_setup
    tracer = Tracer()
    run_pipeline(pipeline, arrays, scalars, tracer=tracer)
    assert tracer.counters, "queue enq/deq must sample occupancy"
    for label, t, value in tracer.counters[:100]:
        assert label in tracer.queues
        assert t >= 0.0
        assert value >= 0


def test_tracer_meta_records_wall(bfs_setup):
    pipeline, arrays, scalars = bfs_setup
    tracer = Tracer()
    result = run_pipeline(pipeline, arrays, scalars, tracer=tracer)
    assert tracer.meta["wall_cycles"] == result.cycles


def test_validate_catches_malformed_traces():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({"traceEvents": [{"ph": "Z"}]}) != []
    assert validate_chrome_trace({"traceEvents": [{"ph": "X", "name": "run"}]}) != []
