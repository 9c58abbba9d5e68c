"""GARDENIA suite: generator properties and golden-oracle agreement.

Two layers. The generator layer pins the synthetic-input contracts:
``with_weights`` is seeded and hash-independent, weights stay in range,
and ``canonicalize`` produces the canonical undirected form (symmetric,
sorted, deduplicated, self-loop-free, idempotent) every workload that
requires undirectedness (TC, BC) relies on. The oracle layer runs every
workload variant — serial kernel, compiled static pipeline, manual
pipeline, data-parallel — against its pure-Python golden reference, plus
hypothesis sweeps over small random instances and hand-checked edge
cases (disconnected graphs, known triangle counts, path-graph
centrality).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompileOptions, compile_function
from repro.core.compiler import ALL_PASSES
from repro.runtime import run_pipeline, run_serial
from repro.workloads import bc, pr, spmv, sssp, tc
from repro.workloads.graphs import (
    CSRGraph,
    WeightedCSRGraph,
    canonicalize,
    power_law,
    uniform_random,
    with_weights,
)
from repro.workloads.matrices import random_matrix

GRAPH_MODULES = [sssp, pr, tc, bc]


# ---------------------------------------------------------------------------
# Generator properties


class TestWithWeights:
    def test_deterministic(self):
        g = power_law(150, 4, seed=3)
        a = with_weights(g, max_weight=64, seed=5)
        b = with_weights(g, max_weight=64, seed=5)
        assert a.weights == b.weights
        assert a.nodes == g.nodes and a.edges == g.edges

    def test_seeds_differ(self):
        g = power_law(150, 4, seed=3)
        assert with_weights(g, seed=1).weights != with_weights(g, seed=2).weights

    def test_distributions_differ_and_skew(self):
        g = power_law(400, 6, seed=3)
        uni = with_weights(g, max_weight=64, seed=1).weights
        par = with_weights(g, max_weight=64, seed=1, distribution="powerlaw").weights
        assert uni != par
        # The powerlaw weights are heavy-tailed: most mass near 1, while
        # uniform weights center mid-range.
        assert sorted(par)[len(par) // 2] < sorted(uni)[len(uni) // 2]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 60), st.integers(1, 5), st.integers(0, 4), st.integers(0, 4))
    def test_always_in_range(self, n, deg, gseed, wseed):
        g = uniform_random(n, deg, seed=gseed)
        w = with_weights(g, max_weight=32, seed=wseed)
        assert isinstance(w, WeightedCSRGraph)
        assert len(w.weights) == w.m
        assert all(1 <= x <= 32 for x in w.weights)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WeightedCSRGraph(2, [0, 1, 1], [1], [3, 3])


class TestCanonicalize:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 60), st.integers(1, 5), st.integers(0, 5))
    def test_canonical_form(self, n, deg, seed):
        g = uniform_random(n, deg, seed=seed)
        c = canonicalize(g)
        assert c.n == g.n
        adj = [c.neighbors(v) for v in range(c.n)]
        for v, ngh in enumerate(adj):
            assert ngh == sorted(set(ngh)), "sorted, deduplicated"
            assert v not in ngh, "no self-loops"
            for w in ngh:
                assert v in adj[w], "symmetric"
        # Every original non-self edge survives (in both directions).
        for v in range(g.n):
            for w in g.neighbors(v):
                if w != v:
                    assert w in adj[v]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 4), st.integers(0, 3))
    def test_idempotent(self, n, deg, seed):
        c = canonicalize(uniform_random(n, deg, seed=seed))
        cc_ = canonicalize(c)
        assert cc_.nodes == c.nodes and cc_.edges == c.edges

    def test_strips_self_loops_and_dups(self):
        g = CSRGraph.from_adjacency([[0, 1, 1], [2], [0]])
        c = canonicalize(g)
        assert c.neighbors(0) == [1, 2]
        assert c.neighbors(1) == [0, 2]
        assert c.neighbors(2) == [0, 1]


def test_make_env_deterministic():
    """Environments are bit-identical across calls (seeded generators,
    no hash-order dependence): the premise of every baseline comparison."""
    g = power_law(100, 4, seed=9)
    m = random_matrix(40, 4, seed=9)
    for module, data in [(sssp, g), (pr, g), (tc, g), (bc, g), (spmv, m)]:
        a1, s1 = module.make_env(data)
        a2, s2 = module.make_env(data)
        assert a1 == a2 and s1 == s2, module.NAME


# ---------------------------------------------------------------------------
# Golden-oracle agreement: every variant of every workload


@pytest.fixture(scope="module")
def graph():
    return uniform_random(120, 4, seed=13)


@pytest.fixture(scope="module")
def matrix():
    return random_matrix(40, 4, seed=17)


def _data(module, graph, matrix):
    return matrix if module is spmv else graph


@pytest.mark.parametrize("module", GRAPH_MODULES + [spmv], ids=lambda m: m.NAME)
def test_serial_matches_oracle(module, graph, matrix, tiny_config):
    data = _data(module, graph, matrix)
    arrays, scalars = module.make_env(data)
    result = run_serial(module.function(), arrays, scalars, config=tiny_config)
    assert module.check(result.arrays, data)


@pytest.mark.parametrize("module", GRAPH_MODULES + [spmv], ids=lambda m: m.NAME)
def test_compiled_pipeline_matches_oracle(module, graph, matrix, tiny_config):
    data = _data(module, graph, matrix)
    arrays, scalars = module.make_env(data)
    pipe = compile_function(
        module.function(),
        options=CompileOptions(num_stages=4, passes=ALL_PASSES),
    )
    result = run_pipeline(pipe, arrays, scalars, config=tiny_config)
    assert module.check(result.arrays, data)


@pytest.mark.parametrize("module", GRAPH_MODULES + [spmv], ids=lambda m: m.NAME)
def test_manual_pipeline_matches_oracle(module, graph, matrix, tiny_config):
    data = _data(module, graph, matrix)
    arrays, scalars = module.make_env(data)
    result = run_pipeline(module.manual_pipeline(), arrays, scalars, config=tiny_config)
    assert module.check(result.arrays, data)


@pytest.mark.parametrize("module", GRAPH_MODULES + [spmv], ids=lambda m: m.NAME)
@pytest.mark.parametrize("nthreads", [2, 4])
def test_data_parallel_matches_oracle(module, graph, matrix, tiny_config, nthreads):
    data = _data(module, graph, matrix)
    arrays, scalars = module.make_env_dp(data, nthreads)
    result = run_pipeline(
        module.data_parallel(nthreads), arrays, scalars, config=tiny_config
    )
    # pr and bc reassociate float sums across threads; sssp, tc, and spmv
    # are exact in every interleaving (integer arithmetic / private rows).
    check = getattr(module, "check_dp", module.check)
    assert check(result.arrays, data)


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 40), st.integers(1, 4), st.integers(0, 5))
def test_oracles_on_random_instances(n, deg, seed):
    """Serial kernel ≡ golden oracle on arbitrary small random graphs."""
    g = uniform_random(n, deg, seed=seed)
    for module in GRAPH_MODULES:
        arrays, scalars = module.make_env(g)
        result = run_serial(module.function(), arrays, scalars)
        assert module.check(result.arrays, g), module.NAME


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 30), st.integers(1, 4), st.integers(0, 5))
def test_spmv_oracle_on_random_matrices(n, nnz, seed):
    m = random_matrix(n, nnz, seed=seed)
    arrays, scalars = spmv.make_env(m)
    result = run_serial(spmv.function(), arrays, scalars)
    assert spmv.check(result.arrays, m)


# ---------------------------------------------------------------------------
# Hand-checked edge cases


def test_sssp_disconnected_component_stays_inf(tiny_config):
    g = CSRGraph.from_adjacency([[1], [0], [3], [2]])
    arrays, scalars = sssp.make_env(g, root=0)
    result = run_serial(sssp.function(), arrays, scalars, config=tiny_config)
    assert sssp.check(result.arrays, g, root=0)
    assert result.arrays["dist"][2] == sssp.INF
    assert result.arrays["dist"][3] == sssp.INF


def test_sssp_single_vertex(tiny_config):
    g = CSRGraph.from_adjacency([[]])
    arrays, scalars = sssp.make_env(g, root=0)
    result = run_serial(sssp.function(), arrays, scalars, config=tiny_config)
    assert result.arrays["dist"] == [0]


def test_tc_counts_k4(tiny_config):
    k4 = CSRGraph.from_adjacency(
        [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    )
    arrays, scalars = tc.make_env(k4)
    result = run_serial(tc.function(), arrays, scalars, config=tiny_config)
    assert result.arrays["total"][0] == 4
    assert tc.check(result.arrays, k4)


def test_tc_triangle_free_is_zero(tiny_config):
    path = CSRGraph.from_adjacency([[1], [0, 2], [1, 3], [2]])
    arrays, scalars = tc.make_env(path)
    result = run_serial(tc.function(), arrays, scalars, config=tiny_config)
    assert result.arrays["total"][0] == 0


def test_tc_directed_input_is_symmetrized(tiny_config):
    """Asymmetric adjacency (the uniform_random generator) counts the same
    triangles as its canonical undirected form — both paths canonicalize."""
    g = uniform_random(50, 3, seed=21)
    arrays, scalars = tc.make_env(g)
    result = run_serial(tc.function(), arrays, scalars, config=tiny_config)
    assert tc.check(result.arrays, g)
    assert result.arrays["total"][0] == tc.reference(canonicalize(g))


def test_bc_path_graph_centrality(tiny_config):
    path = CSRGraph.from_adjacency([[1], [0, 2], [1, 3], [2]])
    arrays, scalars = bc.make_env(path, root=0)
    result = run_serial(bc.function(), arrays, scalars, config=tiny_config)
    assert bc.check(result.arrays, path, root=0)
    # From root 0 on 0-1-2-3: vertex 1 carries paths to {2, 3}, vertex 2
    # carries the path to {3}, endpoints carry none.
    assert result.arrays["centrality"] == [0.0, 2.0, 1.0, 0.0]


def test_pr_ranks_form_distribution(tiny_config):
    g = power_law(80, 3, seed=4)
    arrays, scalars = pr.make_env(g)
    result = run_serial(pr.function(), arrays, scalars, config=tiny_config)
    assert pr.check(result.arrays, g)
    ranks = result.arrays["rank"]
    assert all(r > 0 for r in ranks)
    assert abs(sum(ranks) - 1.0) < 1e-6


def test_spmv_empty_rows(tiny_config):
    from repro.workloads.matrices import CSRMatrix

    a = CSRMatrix(3, 3, [0, 0, 2, 2], [0, 2], [1.0, 2.0])
    arrays, scalars = spmv.make_env(a)
    result = run_serial(spmv.function(), arrays, scalars, config=tiny_config)
    assert spmv.check(result.arrays, a)
    assert result.arrays["y"][0] == 0.0 and result.arrays["y"][2] == 0.0
