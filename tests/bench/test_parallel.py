"""Parallel job fan-out: determinism, nesting guard, suite equivalence."""

import random

import pytest

from repro.bench.harness import adapter_for, run_suite
from repro.bench.parallel import (
    Job,
    clear_job_log,
    in_worker,
    job_log,
    resolve_jobs,
    run_jobs,
)
from repro.workloads.datasets import Input
from repro.workloads.graphs import uniform_random


def test_resolve_jobs_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs() == 3
    assert resolve_jobs(2) == 2  # explicit beats env
    monkeypatch.setenv("REPRO_JOBS", "junk")
    assert resolve_jobs() == 1
    assert resolve_jobs(0) == 1  # clamped


def test_run_jobs_preserves_submission_order():
    jobs = [Job(i, lambda v=i: v * v) for i in range(6)]
    serial = [r.value for r in run_jobs(jobs, workers=1)]
    pooled = [r.value for r in run_jobs(jobs, workers=3)]
    assert serial == [0, 1, 4, 9, 16, 25]
    assert pooled == serial


def test_run_jobs_seeds_rng_identically():
    """Per-job seeds derive from keys, so the pool can't perturb RNG use."""
    jobs = [Job("k%d" % i, lambda: random.random()) for i in range(4)]
    serial = [r.value for r in run_jobs(jobs, workers=1)]
    pooled = [r.value for r in run_jobs(jobs, workers=2)]
    assert pooled == serial


def test_run_jobs_closures_need_not_pickle():
    """Job callables ride through fork as closures; only results pickle."""
    payload = {"unpicklable": lambda: 7}
    jobs = [Job(i, lambda p=payload: p["unpicklable"]()) for i in range(2)]
    assert [r.value for r in run_jobs(jobs, workers=2)] == [7, 7]


def test_nested_fanout_degrades_to_serial(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL_WORKER", "1")
    assert in_worker()
    jobs = [Job(i, lambda v=i: v) for i in range(3)]
    assert [r.value for r in run_jobs(jobs, workers=4)] == [0, 1, 2]


def test_job_log_accumulates():
    clear_job_log()
    run_jobs([Job("a", lambda: 1), Job("b", lambda: 2)], workers=2)
    entries = job_log()
    assert [e.key for e in entries] == ["a", "b"]
    assert all(e.wall >= 0 for e in entries)
    clear_job_log()
    assert job_log() == []


@pytest.fixture(scope="module")
def micro_inputs():
    return [
        Input("p1", "test", lambda: uniform_random(70, 3, seed=3)),
        Input("p2", "test", lambda: uniform_random(80, 3, seed=4)),
    ]


def test_run_suite_parallel_matches_serial(micro_inputs, tiny_config, monkeypatch, tmp_path):
    """The acceptance bar: --jobs N output is bit-identical to serial."""
    from repro import cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    adapter = adapter_for("bfs")
    variants = ("serial", "data-parallel", "phloem-static", "manual")

    def snapshot(jobs):
        cache.reset()
        return run_suite(
            adapter,
            micro_inputs,
            [],
            config=tiny_config,
            variants=variants,
            jobs=jobs,
        ).records

    assert snapshot(2) == snapshot(1)
