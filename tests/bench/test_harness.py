"""Bench harness: adapters, suites, normalization (on micro inputs)."""

import pytest

from repro.bench.harness import BenchAdapter, adapter_for, profile_guided_pipeline, run_suite
from repro.obs import gmean_speedups, normalized, run_record
from repro.workloads import bfs, prd, spmm
from repro.workloads.datasets import Input
from repro.workloads.graphs import uniform_random
from repro.workloads.matrices import random_matrix


@pytest.fixture(scope="module")
def micro_inputs():
    return [
        Input("t1", "test", lambda: uniform_random(80, 3, seed=1)),
        Input("t2", "test", lambda: uniform_random(90, 3, seed=2)),
    ]


def test_adapter_for_name_or_module():
    """One adapter class serves graph and matrix benchmarks alike."""
    assert adapter_for("spmm").module is spmm
    assert adapter_for(bfs).name == "bfs"


def test_check_dp_dispatch():
    """check_dp falls back to check unless the module loosens it (PRD)."""
    graph = uniform_random(60, 3, seed=5)
    arrays, _ = bfs.make_env(graph)
    adapter = adapter_for("bfs")
    assert adapter.check_dp(arrays, graph) == bfs.check(arrays, graph)
    assert adapter_for("prd").check_dp.__func__ is BenchAdapter.check_dp
    assert callable(prd.check_dp)


def test_gmean_speedup():
    runs = [
        run_record("k", "v", "a", 10, ok=True, speedup=2.0),
        run_record("k", "v", "b", 10, ok=True, speedup=8.0),
    ]
    assert gmean_speedups(runs) == {"k": {"v": pytest.approx(4.0)}}


def test_profile_guided_pipeline(micro_inputs, tiny_config):
    best, results = profile_guided_pipeline(
        bfs.function(), bfs.make_env, micro_inputs, config=tiny_config, max_stages=3, top_k=3
    )
    assert best is not None
    assert results


def test_run_suite_end_to_end(micro_inputs, tiny_config):
    adapter = BenchAdapter(bfs)
    suite = run_suite(
        adapter,
        micro_inputs[:1],
        micro_inputs[1:],
        config=tiny_config,
        variants=("serial", "data-parallel", "phloem-static", "manual"),
    )
    assert [r["variant"] for r in suite.records] == [
        "serial", "data-parallel", "phloem-static", "manual"
    ]
    assert all(r["ok"] and r["input"] == "t1" for r in suite.records)
    assert suite.records[0]["speedup"] == 1.0
    assert suite.records[2]["speedup"] > 0
    assert suite.search is None  # no "phloem" variant, no search
    assert set(suite.pipelines) == {"data-parallel", "phloem-static", "manual"}

    serial = normalized(suite.records, "breakdown")["bfs"]["serial"]
    primary = sum(serial[k] for k in ("issue", "backend", "queue", "other"))
    assert abs(primary - 1.0) < 1e-9
    energy = normalized(suite.records, "energy")["bfs"]
    assert abs(sum(energy["serial"].values()) - 1.0) < 1e-9


def test_run_suite_matrix_benchmark(tiny_config):
    """The single adapter drives SpMM through the same run_suite path."""
    item = Input("m1", "test", lambda: random_matrix(30, 4, seed=7))
    suite = run_suite(
        adapter_for("spmm"), [item], [], config=tiny_config,
        variants=("serial", "phloem-static"),
    )
    assert [(r["bench"], r["variant"], r["ok"]) for r in suite.records] == [
        ("spmm", "serial", True), ("spmm", "phloem-static", True)
    ]
