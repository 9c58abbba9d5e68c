"""Profile-guided search mechanics."""

import pytest

from repro.core.autotune import candidate_count, gmean, search_pipelines, speedup_distribution
from repro.errors import CompileError
from repro.obs import SearchRecorder
from repro.runtime import run_pipeline, run_serial
from repro.workloads import bfs


def test_gmean():
    assert gmean([2.0, 8.0]) == pytest.approx(4.0)
    assert gmean([3.0]) == pytest.approx(3.0)
    with pytest.raises(CompileError):
        gmean([])


def test_candidate_count_bfs():
    assert candidate_count(bfs.function(), top_k=7) == 4  # BFS has 4 ranked points


def test_search_returns_distribution(tiny_graph, tiny_config):
    arrays, scalars = bfs.make_env(tiny_graph)
    base = run_serial(bfs.function(), arrays, scalars, config=tiny_config).cycles

    def evaluate(pipeline):
        return base / run_pipeline(pipeline, arrays, scalars, config=tiny_config).cycles

    best, results = search_pipelines(bfs.function(), evaluate, max_stages=3, top_k=3)
    assert best is not None
    assert best.speedup == max(r.speedup for r in results)
    assert all(r.num_units == r.pipeline.num_units for r in results)
    assert len(results) >= 3
    dist = speedup_distribution(results)
    assert all(speeds == sorted(speeds) for speeds in dist.values())
    assert sum(len(v) for v in dist.values()) == len(results)


def test_search_skips_bad_combos(tiny_graph, tiny_config):
    arrays, scalars = bfs.make_env(tiny_graph)

    def evaluate(pipeline):
        return 1.0

    recorder = SearchRecorder()
    _, results = search_pipelines(
        bfs.function(), evaluate, max_stages=4, top_k=4, recorder=recorder
    )
    # Every enumerated combination was either scored or recorded as failed.
    assert len(recorder.candidates) == 4 + 6 + 4  # C(4,1)+C(4,2)+C(4,3)
    scored = [c for c in recorder.candidates if c["status"] == "scored"]
    assert len(scored) == len(results)
    assert all(c["status"] == "failed:compile" for c in recorder.candidates if c not in scored)


def test_limit_caps_enumeration(tiny_graph):
    def evaluate(pipeline):
        return 1.0

    _, results = search_pipelines(bfs.function(), evaluate, max_stages=4, top_k=4, limit=2)
    assert len(results) <= 2
