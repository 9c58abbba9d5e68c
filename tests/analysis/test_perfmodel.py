"""The static performance model (PHL4xx advisories + autotune pruning).

Three halves mirror the model's contract (DESIGN.md Sec. 8):

* shape and advisory tests on compiled pipelines — report structure and
  stable PHL4xx codes;
* the pinned conformance sweep: on every shipped kernel — compiled,
  manual, data-parallel, and TACO-lowered — the predicted bottleneck
  stage must match the simulator's busiest stage (tie-aware, see
  ``validate_prediction``). These pins are the model's calibration
  contract: a cost-constant change that breaks one is a regression;
* autotune pruning: ``search_pipelines(prune_static=True)`` must pick
  the exact winner the exhaustive search picks on every shipped
  benchmark while simulating >= 3x fewer candidates (where more than
  one candidate compiles), asserted from SearchRecorder logs.
"""

import pytest

from repro.analysis.perfmodel import (
    PerfReport,
    StageEstimate,
    analyze_pipeline,
    measured_stage_busy,
    perf_advisories,
    static_score,
    validate_prediction,
)
from repro.core.autotune import gmean, search_pipelines
from repro.core.compiler import CompileOptions, compile_c, compile_function
from repro.diag import CODES, ERROR
from repro.obs.search import SearchRecorder
from repro.pipette.config import SCALED_1CORE
from repro.runtime.executor import run_pipeline, run_serial
from repro.taco import (
    ALPHA,
    BETA,
    dense_input,
    mtmul_kernel,
    residual_kernel,
    sddmm_kernel,
    spmv_kernel,
)
from repro.workloads import ALL_BENCHMARKS
from repro.workloads.graphs import uniform_random
from repro.workloads.matrices import random_matrix

PERF_CODES = ("PHL401", "PHL402", "PHL403", "PHL404", "PHL405")


@pytest.fixture(scope="module")
def graph():
    return uniform_random(400, 6, seed=7)


@pytest.fixture(scope="module")
def matrix():
    return random_matrix(80, 5, seed=11)


def _bench_data(name, graph, matrix):
    return matrix if name in ("spmm", "spmv") else graph


def _compiled(name):
    return compile_function(ALL_BENCHMARKS[name].function(), options=CompileOptions())


# ---------------------------------------------------------------------------
# Report shape


def test_report_shape_bfs():
    pipeline = _compiled("bfs")
    report = analyze_pipeline(pipeline)
    assert report.pipeline_name == pipeline.name
    assert len(report.stages) == len(pipeline.stages)
    assert all(s.work > 0 for s in report.stages)
    assert all(s.uops > 0 for s in report.stages)
    peak = max(s.work for s in report.stages)
    assert report.bottleneck_work == peak
    assert report.throughput == pytest.approx(1.0 / peak)
    assert sum(s.share for s in report.stages) == pytest.approx(1.0)
    flagged = [s for s in report.stages if s.bottleneck]
    assert [s.index for s in flagged] == [report.bottleneck_index]
    assert report.stage(report.bottleneck_index) is flagged[0]
    assert report.stage(999) is None


def test_report_edges_cover_stage_queues():
    pipeline = _compiled("bfs")
    report = analyze_pipeline(pipeline)
    assert report.edges, "bfs has cross-stage queues"
    for edge in report.edges:
        assert edge.pressure in ("full", "empty", "balanced")
        assert edge.qid in pipeline.queues
        assert edge.capacity == pipeline.queues[edge.qid].capacity
        assert edge.burst >= 1.0


def test_report_as_dict_and_render():
    report = analyze_pipeline(_compiled("cc"))
    d = report.as_dict()
    assert set(d) == {
        "pipeline", "stages", "edges", "bottleneck", "throughput",
        "issue_demand", "static_score",
    }
    assert d["bottleneck"] == report.bottleneck_index
    assert d["stages"][0]["index"] == report.stages[0].index
    text = report.render()
    assert "perf model:" in text
    assert "<-- bn" in text


def test_static_score_is_throughput():
    pipeline = _compiled("prd")
    report = analyze_pipeline(pipeline)
    assert report.static_score() == report.throughput
    assert static_score(pipeline) == pytest.approx(report.static_score())


def test_bottleneck_tiebreak_prefers_earlier_stage():
    pipeline = _compiled("bfs")
    stages = [
        StageEstimate(0, "a", 1.0, 50.0, 10.0),
        StageEstimate(1, "b", 1.0, 50.0, 10.0),
        StageEstimate(2, "c", 1.0, 10.0, 2.0),
    ]
    report = PerfReport(pipeline, stages, [])
    assert report.bottleneck_index == 0


def test_single_stage_report_has_no_bottleneck_advisory():
    pipeline = compile_c(
        ALL_BENCHMARKS["bfs"].SOURCE, options=CompileOptions(num_stages=1)
    )
    report = analyze_pipeline(pipeline)
    codes = [d.code for d in report.advisories()]
    assert "PHL401" not in codes
    assert "PHL405" not in codes


# ---------------------------------------------------------------------------
# Advisories


def test_perf_codes_are_never_errors():
    for code in PERF_CODES:
        severity, _ = CODES[code]
        assert severity != ERROR


def test_bfs_advisories_pinned():
    diags = perf_advisories(_compiled("bfs"))
    codes = set(d.code for d in diags)
    # The compiled 4-stage BFS legitimately bursts ~32 tokens into its
    # default capacity-24 queues (the simulator confirms full_blocks > 0),
    # and its update stage dominates the predicted work.
    assert "PHL401" in codes
    assert "PHL402" in codes
    assert codes <= set(PERF_CODES)
    assert not diags.has_errors


def test_all_shipped_benchmarks_within_advisory_allowlist():
    # The CI perf-lint sweep contract: shipped kernels never earn an
    # ERROR, and any WARNING is one of the expected advisory codes.
    for name, mod in sorted(ALL_BENCHMARKS.items()):
        diags = perf_advisories(
            compile_function(mod.function(), options=CompileOptions())
        )
        assert not diags.errors(), name
        assert set(d.code for d in diags.warnings()) <= {"PHL402", "PHL404"}, name
        assert set(d.code for d in diags) <= set(PERF_CODES), name


def test_phl405_fires_on_issue_starvation():
    pipeline = _compiled("bfs")
    stages = [
        StageEstimate(0, "a", 1.0, 10.0, 40.0),
        StageEstimate(1, "b", 1.0, 10.0, 40.0),
    ]
    report = PerfReport(pipeline, stages, [])
    assert report.issue_demand == pytest.approx(8.0)
    assert "PHL405" in [d.code for d in report.advisories()]


def test_advisories_append_to_existing_set():
    from repro.diag import DiagnosticSet

    diags = DiagnosticSet()
    diags.add("PHL101", "pre-existing")
    out = perf_advisories(_compiled("bfs"), diags=diags)
    assert out is diags
    assert "PHL101" in [d.code for d in diags]
    assert "PHL401" in [d.code for d in diags]


#: ``repr(static_score(...))`` of every shipped kernel compiled to 2, 3 and
#: 4 stages: any change to a price the model charges moves one of these.
SCORE_PINS = {
    "bc": ("6.15839389087326e-05", "6.15839389087326e-05", "6.15839389087326e-05"),
    "bfs": ("7.598784194528876e-05", "7.598784194528876e-05", "7.598784194528876e-05"),
    "cc": ("8.10898475510866e-05", "8.10898475510866e-05", "8.10898475510866e-05"),
    "pr": ("7.629510948348211e-05", "7.629510948348211e-05", "7.629510948348211e-05"),
    "prd": ("7.694675284702985e-05", "7.694675284702985e-05", "7.694675284702985e-05"),
    "radii": ("4.498627918484862e-05", "4.498627918484862e-05", "4.498627918484862e-05"),
    "spmm": ("1.353876147410035e-05", "1.3541694878530997e-05", "1.3541694878530997e-05"),
    "spmv": ("0.0015174506828528073", "0.0015174506828528073", "0.0015174506828528073"),
    "sssp": ("8.000320012800513e-06", "8.000320012800513e-06", "8.000320012800513e-06"),
    "tc": ("3.676740936833591e-05", "1.8383704684167955e-05", "1.8383704684167955e-05"),
    "taco/mtmul": ("0.0005847953216374269", "0.0005847953216374269", "0.00029239766081871346"),
    "taco/residual": ("0.001447178002894356", "0.001447178002894356", "0.001447178002894356"),
    "taco/sddmm": ("0.0001257071024512885", "0.0001257071024512885", "0.0001861850679575498"),
    "taco/spmv": ("0.0015174506828528073", "0.0015174506828528073", "0.0015174506828528073"),
}


def _pinned_compile(name, num_stages):
    options = CompileOptions(num_stages=num_stages)
    if name.startswith("taco/"):
        maker = {
            "taco/mtmul": mtmul_kernel,
            "taco/residual": residual_kernel,
            "taco/sddmm": sddmm_kernel,
            "taco/spmv": spmv_kernel,
        }[name]
        return compile_c(maker().source, options=options)
    return compile_function(ALL_BENCHMARKS[name].function(), options=options)


@pytest.mark.parametrize("num_stages", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(SCORE_PINS))
def test_static_score_is_pinned(name, num_stages):
    score = static_score(_pinned_compile(name, num_stages))
    assert repr(score) == SCORE_PINS[name][num_stages - 2]


def test_static_score_pins_cover_every_shipped_kernel():
    taco = ["taco/mtmul", "taco/residual", "taco/sddmm", "taco/spmv"]
    assert sorted(SCORE_PINS) == sorted(list(ALL_BENCHMARKS) + taco)


# ---------------------------------------------------------------------------
# The pinned conformance sweep: predicted vs. measured bottleneck


def _taco_cases():
    mat = random_matrix(60, 4, seed=21)
    smat = random_matrix(25, 4, seed=22)
    kdim = 6
    return {
        "taco/spmv": (
            spmv_kernel,
            lambda k: k.bind({"A": mat, "x": dense_input(mat.ncols, 1)}),
        ),
        "taco/residual": (
            residual_kernel,
            lambda k: k.bind(
                {"A": mat, "x": dense_input(mat.ncols, 2), "b": dense_input(mat.nrows, 3)}
            ),
        ),
        "taco/mtmul": (
            mtmul_kernel,
            lambda k: k.bind(
                {
                    "A": mat,
                    "x": dense_input(mat.nrows, 4),
                    "z": dense_input(mat.ncols, 5),
                    "alpha": ALPHA,
                    "beta": BETA,
                }
            ),
        ),
        "taco/sddmm": (
            sddmm_kernel,
            lambda k: k.bind(
                {
                    "B": smat,
                    "C": (dense_input(smat.nrows * kdim, 6), kdim),
                    "D": (dense_input(kdim * smat.ncols, 7), smat.ncols),
                }
            ),
        ),
    }


def _assert_prediction_holds(label, pipeline, arrays, scalars):
    result = run_pipeline(pipeline, arrays, scalars, config=SCALED_1CORE)
    verdict = validate_prediction(pipeline, result.stats)
    assert verdict["ok"], (
        "%s: predicted stage %s (set %s), measured %s\nbusy=%s\nwork=%s"
        % (
            label,
            verdict["predicted"],
            verdict["predicted_set"],
            verdict["measured"],
            verdict["busy"],
            verdict["work"],
        )
    )
    return verdict


@pytest.mark.parametrize("bench", sorted(ALL_BENCHMARKS))
def test_conformance_compiled(bench, graph, matrix):
    mod = ALL_BENCHMARKS[bench]
    arrays, scalars = mod.make_env(_bench_data(bench, graph, matrix))
    pipeline = compile_function(mod.function(), options=CompileOptions())
    _assert_prediction_holds(bench + "/static", pipeline, dict(arrays), dict(scalars))


@pytest.mark.parametrize("bench", sorted(ALL_BENCHMARKS))
def test_conformance_manual(bench, graph, matrix):
    mod = ALL_BENCHMARKS[bench]
    arrays, scalars = mod.make_env(_bench_data(bench, graph, matrix))
    _assert_prediction_holds(
        bench + "/manual", mod.manual_pipeline(), dict(arrays), dict(scalars)
    )


@pytest.mark.parametrize("bench", sorted(ALL_BENCHMARKS))
def test_conformance_data_parallel(bench, graph, matrix):
    mod = ALL_BENCHMARKS[bench]
    arrays, scalars = mod.make_env_dp(_bench_data(bench, graph, matrix), 4)
    _assert_prediction_holds(bench + "/dp", mod.data_parallel(4), arrays, scalars)


@pytest.mark.parametrize("name", sorted(_taco_cases()))
def test_conformance_taco(name):
    maker, binder = _taco_cases()[name]
    kernel = maker()
    arrays, scalars = binder(kernel)
    pipeline = compile_c(kernel.source, options=CompileOptions(num_stages=4))
    _assert_prediction_holds(name, pipeline, arrays, scalars)


def test_measured_stage_busy_shape(graph):
    mod = ALL_BENCHMARKS["bfs"]
    arrays, scalars = mod.make_env(graph)
    pipeline = compile_function(mod.function(), options=CompileOptions())
    result = run_pipeline(pipeline, dict(arrays), dict(scalars), config=SCALED_1CORE)
    busy = measured_stage_busy(result.stats)
    assert set(busy) == set(range(len(pipeline.stages)))
    assert all(v >= 0 for v in busy.values())
    assert max(busy.values()) > 0


# ---------------------------------------------------------------------------
# Autotune pruning


#: Exhaustive winner per bench at top_k=5 on the pinned tiny inputs, and
#: whether more than one candidate compiles (spmm admits exactly one).
PRUNE_PINS = {
    "bfs": ((1,), True),
    "cc": ((1, 2), True),
    "prd": ((1, 2), True),
    "radii": ((2, 3, 4), True),
    "spmm": ((4,), False),
    "pr": ((3,), False),
    "spmv": ((0, 1, 2), True),
}


def _prune_inputs(name, mod):
    data = (
        random_matrix(60, 4, seed=11)
        if name in ("spmm", "spmv")
        else uniform_random(150, 4, seed=7)
    )
    return mod.make_env(data)


@pytest.mark.parametrize("bench", sorted(PRUNE_PINS))
def test_prune_static_matches_exhaustive(bench):
    mod = ALL_BENCHMARKS[bench]
    arrays, scalars = _prune_inputs(bench, mod)
    function = mod.function()
    base = run_serial(function, dict(arrays), dict(scalars), config=SCALED_1CORE).cycles

    def evaluate(pipeline):
        result = run_pipeline(pipeline, dict(arrays), dict(scalars), config=SCALED_1CORE)
        return gmean([base / result.cycles])

    rec_full = SearchRecorder()
    best_full, _ = search_pipelines(function, evaluate, top_k=5, recorder=rec_full)
    rec_pruned = SearchRecorder()
    best_pruned, _ = search_pipelines(
        function, evaluate, top_k=5, recorder=rec_pruned, prune_static=True
    )

    expected, prunable = PRUNE_PINS[bench]
    assert best_full is not None and best_full.indices == expected
    assert best_pruned is not None and best_pruned.indices == expected

    scored_full = [c for c in rec_full.candidates if c["status"] == "scored"]
    scored_pruned = [c for c in rec_pruned.candidates if c["status"] == "scored"]
    dropped = [c for c in rec_pruned.candidates if c["status"] == "pruned"]
    assert not any(c["status"] == "pruned" for c in rec_full.candidates)
    if prunable:
        # The acceptance bar: >= 3x fewer training simulations.
        assert 3 * len(scored_pruned) <= len(scored_full)
        assert dropped
        for entry in dropped:
            assert entry["speedup"] is None
            assert entry["static_score"] > 0
            assert "static score" in entry["reason"]
    else:
        assert len(scored_pruned) == len(scored_full) == 1
        assert not dropped


def test_prune_static_tc_partial():
    """TC sits between the PRUNE_PINS categories: three candidates compile
    (too few for the 3x pruning bar, too many for the single-candidate
    branch). Pruning still simulates strictly fewer candidates and picks
    the exhaustive winner."""
    mod = ALL_BENCHMARKS["tc"]
    arrays, scalars = _prune_inputs("tc", mod)
    function = mod.function()
    base = run_serial(function, dict(arrays), dict(scalars), config=SCALED_1CORE).cycles

    def evaluate(pipeline):
        result = run_pipeline(pipeline, dict(arrays), dict(scalars), config=SCALED_1CORE)
        return gmean([base / result.cycles])

    rec_full = SearchRecorder()
    best_full, _ = search_pipelines(function, evaluate, top_k=5, recorder=rec_full)
    rec_pruned = SearchRecorder()
    best_pruned, _ = search_pipelines(
        function, evaluate, top_k=5, recorder=rec_pruned, prune_static=True
    )
    assert best_full is not None and best_full.indices == (3,)
    assert best_pruned is not None and best_pruned.indices == (3,)
    scored_full = [c for c in rec_full.candidates if c["status"] == "scored"]
    scored_pruned = [c for c in rec_pruned.candidates if c["status"] == "scored"]
    assert len(scored_pruned) < len(scored_full)


@pytest.mark.parametrize("bench", ["sssp", "bc"])
def test_search_finds_no_split_for_bucketed_kernels(bench):
    """Documented exceptions to the PRUNE_PINS sweep: SSSP's delta buckets
    and BC's frontier queue make every loop bound value-dependent, so no
    multi-stage split compiles — the search returns no winner either way
    (the paper's SpMM negative result, reproduced on the GARDENIA side).
    The kernels still run as 1-stage fallbacks (see the conformance
    sweep above); only the *search space* is empty."""
    mod = ALL_BENCHMARKS[bench]
    arrays, scalars = _prune_inputs(bench, mod)
    function = mod.function()
    base = run_serial(function, dict(arrays), dict(scalars), config=SCALED_1CORE).cycles

    def evaluate(pipeline):
        result = run_pipeline(pipeline, dict(arrays), dict(scalars), config=SCALED_1CORE)
        return gmean([base / result.cycles])

    for prune in (False, True):
        rec = SearchRecorder()
        best, _ = search_pipelines(
            function, evaluate, top_k=5, recorder=rec, prune_static=prune
        )
        assert best is None, bench
        assert not [c for c in rec.candidates if c["status"] == "scored"]


def test_prune_keep_count_bounds():
    from repro.core.autotune import _prune_keep_count

    assert _prune_keep_count(14) == 4
    assert _prune_keep_count(25) == 7
    assert _prune_keep_count(1) == 1
