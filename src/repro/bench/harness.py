"""Benchmark harness: runs paper-style comparisons and aggregates results.

Wraps each benchmark module behind one uniform adapter (inputs in, arrays +
oracle check out) and runs the variants the paper compares — Serial,
Data-parallel, Phloem (profile-guided and static), Manually pipelined —
into one RunRecord per (variant, input). The per-kernel numbers of Sec. VII
(geometric-mean speedups, breakdowns normalised to serial) are the slicers
of :mod:`repro.obs.record` over those records.

The harness leans on :mod:`repro.cache` (compiled pipelines, every run it
records, and search scores are memoized across calls and process
restarts) and on :mod:`repro.bench.parallel` (``run_suite`` fans its
per-input work out over a worker pool; results are bit-identical to the
serial path).
"""

import collections
import os

from .. import cache
from ..core.autotune import SEARCH_LIMIT, SEARCH_TOP_K, SearchPoint, gmean, search_pipelines
from ..core.compiler import ALL_PASSES, CompileOptions
from ..errors import PhloemError
from ..ir.serialize import fingerprint
from ..obs.record import record_of
from ..pipette.config import SCALED_1CORE
from ..runtime.executor import run_pipeline
from .parallel import Job, run_jobs

#: Environment switch: REPRO_QUICK=1 shrinks the evaluation (fewer inputs).
QUICK = bool(os.environ.get("REPRO_QUICK"))

#: SMT width used for single-core data-parallel baselines.
DP_THREADS = 4


class BenchAdapter:
    """The uniform adapter over every benchmark module (graph or matrix).

    A benchmark module provides ``NAME``, ``function()``, ``make_env``,
    ``data_parallel``/``make_env_dp``, ``manual_pipeline``, and ``check``;
    a module whose data-parallel variant needs a looser oracle (PRD's
    float reductions reassociate) additionally provides ``check_dp``.
    That tolerance lives in the benchmark module, not here: the adapter is
    pure plumbing and is identical for all ten benchmarks.
    """

    def __init__(self, module):
        self.module = module
        self.name = module.NAME

    def function(self):
        """The serial kernel the compiler transforms."""
        return self.module.function()

    def env(self, data):
        """``(arrays, scalars)`` environment for one built input."""
        return self.module.make_env(data)

    def dp_pipeline(self, nthreads):
        """The hand-written data-parallel baseline pipeline."""
        return self.module.data_parallel(nthreads)

    def dp_env(self, data, nthreads):
        """Environment for the data-parallel baseline."""
        return self.module.make_env_dp(data, nthreads)

    def manual(self):
        """The hand-tuned manually pipelined variant."""
        return self.module.manual_pipeline()

    def check(self, arrays, data):
        """Exact output validation against the benchmark's oracle."""
        return self.module.check(arrays, data)

    def check_dp(self, arrays, data):
        """Validation for data-parallel outputs (module may loosen it)."""
        check = getattr(self.module, "check_dp", None)
        if check is not None:
            return check(arrays, data)
        return self.module.check(arrays, data)


def adapter_for(bench):
    """Adapter for a benchmark name (any key of ``ALL_BENCHMARKS``) or module."""
    if isinstance(bench, str):
        from ..workloads import ALL_BENCHMARKS

        return BenchAdapter(ALL_BENCHMARKS[bench])
    return BenchAdapter(bench)


def log_engine_fallbacks(label, fallbacks):
    """One advisory line (stderr, via :func:`repro.obs.log`) for a run that
    mixed engines: which stages left the requested engine, and why."""
    if fallbacks:
        from ..obs import log

        log(
            "%s: mixed engines: %s",
            label,
            "; ".join(
                "%s fell back (%s)" % (stage, fallbacks[stage]) for stage in sorted(fallbacks)
            ),
        )


def profile_guided_pipeline(
    function, env, train_inputs, config=SCALED_1CORE, max_stages=4, top_k=SEARCH_TOP_K,
    limit=SEARCH_LIMIT, passes=ALL_PASSES, prune_static=False,
):
    """Run the paper's profile-guided search; returns (best, all results).

    ``env(data)`` is the ``(arrays, scalars)`` of one built training input.
    The evaluator scores each candidate of the serial ``function`` by gmean
    speedup over serial on the training inputs, mirroring Sec. VI-C. Scores
    are memoized in the search cache (training simulations dominate suite
    wall-clock), and ``results`` are pipeline-free :class:`SearchPoint`
    summaries — small enough to ship across process boundaries and to
    pickle to disk; ``best`` carries a real pipeline, recompiled through
    the pipeline cache on warm hits.

    ``prune_static`` enables the static pre-filter
    (:func:`repro.core.autotune.search_pipelines`): statically-dominated
    candidates are dropped before any training simulation. It joins the
    search-cache key — a pruned and an exhaustive search score different
    candidate sets, so they must not share cache entries.
    """
    baselines = {}
    envs = {}
    env_prints = []
    for item in train_inputs:
        arrays, scalars = env(item.build())
        envs[item.name] = (arrays, scalars)
        env_prints.append(cache.fingerprint_env(arrays, scalars))

    key_parts = (
        fingerprint(function),
        sorted(env_prints),
        cache.fingerprint_config(config),
        {"max_stages": max_stages, "top_k": top_k, "limit": limit, "passes": list(passes)},
        {"prune_static": prune_static},
    )

    def compute():
        for item in train_inputs:
            arrays, scalars = envs[item.name]
            baselines[item.name] = cache.cached_run(function, arrays, scalars, config).cycles

        def evaluate(pipeline):
            speeds = []
            for item in train_inputs:
                arrays, scalars = envs[item.name]
                result = run_pipeline(pipeline, arrays, scalars, config=config)
                speeds.append(baselines[item.name] / result.cycles)
            return gmean(speeds)

        best, results = search_pipelines(
            function, evaluate, max_stages=max_stages, top_k=top_k, limit=limit,
            passes=passes, prune_static=prune_static
        )
        return {
            "points": [(list(r.indices), r.num_units, r.speedup) for r in results],
            "best": None if best is None else list(best.indices),
        }

    payload = cache.cached_search(key_parts, compute)
    results = [
        SearchPoint(tuple(indices), units, speedup)
        for indices, units, speedup in payload["points"]
    ]
    best = None
    if payload["best"] is not None:
        indices = tuple(payload["best"])
        options = CompileOptions(
            num_stages=len(indices) + 1, passes=passes, point_indices=indices
        )
        pipeline = cache.cached_compile(function, options)
        speedup = next(r.speedup for r in results if r.indices == indices)
        best = SearchPoint(indices, pipeline.num_units, speedup, pipeline=pipeline)
    return best, results


class SuiteResult(collections.namedtuple("SuiteResult", "records search pipelines")):
    """What :func:`run_suite` returns: one RunRecord per (variant, input), the
    profile-guided search's scored candidates (None when the ``"phloem"``
    variant did not run or the search failed) and ``{variant: pipeline}``
    for every variant that has one."""

    __slots__ = ()


def run_suite(
    adapter,
    test_inputs,
    train_inputs,
    config=SCALED_1CORE,
    variants=None,
    options=None,
    jobs=None,
):
    """Run all requested variants on all test inputs.

    ``options`` is a :class:`~repro.core.compiler.CompileOptions` shaping
    the Phloem compilations. ``jobs`` fans the per-input work out over a
    worker pool (default: the ``REPRO_JOBS`` environment variable);
    parallel runs produce cycle-identical results to serial ones.

    Returns a :class:`SuiteResult`; the records are in input order, each
    input's in ``variants`` order, and every table over them is a slicer of
    :mod:`repro.obs.record`.
    """
    variants = variants or ("serial", "data-parallel", "phloem", "phloem-static", "manual")
    options = options or CompileOptions()
    function = adapter.function()

    pipelines = {}
    if "phloem-static" in variants or "phloem" in variants:
        pipelines["phloem-static"] = cache.cached_compile(function, options)
    search = None
    if "phloem" in variants:
        pipelines["phloem"] = pipelines["phloem-static"]
        try:
            best, search = profile_guided_pipeline(
                function,
                adapter.env,
                train_inputs,
                config=config,
                max_stages=options.num_stages,
                passes=options.passes,
            )
            if best is not None:
                pipelines["phloem"] = best.pipeline
        except PhloemError:
            pass
    if "manual" in variants:
        pipelines["manual"] = adapter.manual()
    if "data-parallel" in variants:
        pipelines["data-parallel"] = adapter.dp_pipeline(DP_THREADS)

    def run_input(item):
        data = item.build()
        arrays, scalars = adapter.env(data)
        serial = cache.cached_run(function, arrays, scalars, config)
        records = []
        for variant in variants:
            check = adapter.check
            if variant == "serial":
                run = serial
            elif variant == "data-parallel":
                env, check = adapter.dp_env(data, DP_THREADS), adapter.check_dp
                run = cache.cached_run(pipelines[variant], *env, config)
            elif variant in pipelines:
                run = cache.cached_run(pipelines[variant], arrays, scalars, config)
            else:
                continue
            log_engine_fallbacks(
                "%s %s/%s" % (item.name, adapter.name, variant), run.stage_fallbacks
            )
            ok = check(run.arrays, data)
            records.append(record_of(adapter.name, variant, item.name, run, ok, serial.cycles))
        return records

    job_list = [
        Job("%s/%s" % (adapter.name, item.name), run_input, item) for item in test_inputs
    ]
    records = [
        record for job_result in run_jobs(job_list, workers=jobs) for record in job_result.value
    ]
    return SuiteResult(records, search, pipelines)
