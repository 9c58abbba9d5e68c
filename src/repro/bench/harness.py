"""Benchmark harness: runs paper-style comparisons and aggregates results.

Wraps each benchmark module behind one uniform adapter (inputs in, arrays +
oracle check out), runs the variants the paper compares — Serial,
Data-parallel, Phloem (profile-guided and static), Manually pipelined —
and aggregates per-input speedups with geometric means, as every figure in
Sec. VII does.

The harness leans on :mod:`repro.cache` (compiled pipelines, serial
baselines, and search scores are memoized across calls and process
restarts) and on :mod:`repro.bench.parallel` (``run_suite`` fans its
per-input work out over a worker pool; results are bit-identical to the
serial path).
"""

import os

from .. import cache
from ..core.autotune import SearchPoint, gmean, search_pipelines
from ..core.compiler import ALL_PASSES, CompileOptions
from ..errors import PhloemError
from ..ir.serialize import fingerprint
from ..pipette.config import SCALED_1CORE
from ..runtime.executor import run_pipeline
from .parallel import Job, run_jobs

#: Environment switch: REPRO_QUICK=1 shrinks the evaluation (fewer inputs).
QUICK = bool(os.environ.get("REPRO_QUICK"))

#: SMT width used for single-core data-parallel baselines.
DP_THREADS = 4


class VariantRun:
    """One (variant, input) execution."""

    __slots__ = ("variant", "input_name", "cycles", "ok", "breakdown", "energy", "meta")

    def __init__(self, variant, input_name, cycles, ok, breakdown, energy, meta=None):
        self.variant = variant
        self.input_name = input_name
        self.cycles = cycles
        self.ok = ok
        self.breakdown = breakdown
        self.energy = energy
        self.meta = meta or {}

    def __repr__(self):
        return "VariantRun(%s/%s: %.0f cycles, ok=%s)" % (
            self.variant,
            self.input_name,
            self.cycles,
            self.ok,
        )


class BenchAdapter:
    """The uniform adapter over every benchmark module (graph or matrix).

    A benchmark module provides ``NAME``, ``function()``, ``make_env``,
    ``data_parallel``/``make_env_dp``, ``manual_pipeline``, and ``check``;
    a module whose data-parallel variant needs a looser oracle (PRD's
    float reductions reassociate) additionally provides ``check_dp``.
    That tolerance lives in the benchmark module, not here: the adapter is
    pure plumbing and is identical for all five benchmarks.
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


#: Back-compat aliases: the graph/SpMM adapters were merged into one.
GraphBenchAdapter = BenchAdapter
SpmmBenchAdapter = BenchAdapter


def adapter_for(bench):
    """Adapter for a benchmark name (bfs/cc/prd/radii/spmm) or module."""
    if isinstance(bench, str):
        from ..workloads import ALL_BENCHMARKS

        return BenchAdapter(ALL_BENCHMARKS[bench])
    return BenchAdapter(bench)


def _record(variant, input_name, result, ok):
    run = VariantRun(
        variant,
        input_name,
        result.cycles,
        ok,
        result.breakdown(),
        result.energy().as_dict(),
    )
    # Full SimStats summary, for the structured metrics pipeline
    # (repro.obs.record). Live runs carry stats; cached baselines recorded
    # before the summary field existed return None and are simply omitted.
    stats = getattr(result, "stats", None)
    summary = stats.summary() if stats is not None else result.summary()
    if summary is not None:
        run.meta["summary"] = summary
    # Which engine executed each stage (live runs only: a cached baseline
    # recorded no machine). Kept out of the summary, which is compared for
    # equality across engines.
    if hasattr(result, "stage_engines"):
        run.meta["stage_engines"] = result.stage_engines
        run.meta["stage_fallbacks"] = result.stage_fallbacks
    return run


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


def profile_guided_pipeline(adapter, train_inputs, config=SCALED_1CORE, max_stages=4, top_k=5, limit=40, passes=ALL_PASSES, recorder=None, prune_static=None):
    """Run the paper's profile-guided search; returns (best, all results).

    The evaluator scores each candidate by gmean speedup over serial on the
    training inputs, mirroring Sec. VI-C. Scores are memoized in the search
    cache (training simulations dominate suite wall-clock), and ``results``
    are pipeline-free :class:`SearchPoint` summaries — small enough to ship
    across process boundaries and to pickle to disk; ``best`` carries a
    real pipeline, recompiled through the pipeline cache on warm hits.

    ``prune_static`` enables the static pre-filter
    (:func:`repro.core.autotune.search_pipelines`): statically-dominated
    candidates are dropped before any training simulation. It joins the
    search-cache key — a pruned and an exhaustive search score different
    candidate sets, so they must not share cache entries.

    ``recorder`` (a :class:`repro.obs.SearchRecorder`) observes the search.
    On a warm cache hit the scored candidates and verdict are replayed from
    the cached payload (failed and pruned candidates are not cached, so
    the replay shows scores only).
    """
    function = adapter.function()
    baselines = {}
    envs = {}
    env_prints = []
    for item in train_inputs:
        arrays, scalars = adapter.env(item.build())
        envs[item.name] = (arrays, scalars)
        env_prints.append(cache.fingerprint_env(arrays, scalars))

    key_parts = (
        fingerprint(function),
        sorted(env_prints),
        cache.fingerprint_config(config),
        {"max_stages": max_stages, "top_k": top_k, "limit": limit, "passes": list(passes)},
    )
    if prune_static:
        # Joins the key only when enabled so pre-existing exhaustive-search
        # cache entries keep their keys.
        key_parts = key_parts + ({"prune_static": prune_static},)

    def compute():
        for item in train_inputs:
            arrays, scalars = envs[item.name]
            baselines[item.name] = cache.cached_serial_run(
                function, arrays, scalars, config
            ).cycles

        def evaluate(pipeline):
            speeds = []
            for item in train_inputs:
                arrays, scalars = envs[item.name]
                result = run_pipeline(pipeline, arrays, scalars, config=config)
                speeds.append(baselines[item.name] / result.cycles)
            return gmean(speeds)

        best, results = search_pipelines(
            function, evaluate, max_stages=max_stages, top_k=top_k, limit=limit,
            passes=passes, recorder=recorder, prune_static=prune_static
        )
        return {
            "points": [(list(r.indices), r.num_units, r.speedup) for r in results],
            "best": None if best is None else list(best.indices),
        }

    payload = cache.cached_search(key_parts, compute)
    if recorder is not None and not recorder.candidates:
        # Warm hit: compute() never ran, so replay the cached scores.
        for indices, units, speedup in payload["points"]:
            recorder.scored(indices, units, speedup)
        recorder.decide(payload["best"])
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


def run_suite(
    adapter,
    test_inputs,
    train_inputs,
    config=SCALED_1CORE,
    variants=None,
    options=None,
    jobs=None,
    recorder=None,
):
    """Run all requested variants on all test inputs.

    ``options`` is a :class:`~repro.core.compiler.CompileOptions` shaping
    the Phloem compilations. ``jobs`` fans the per-input work out over a
    worker pool (default: the ``REPRO_JOBS`` environment variable);
    parallel runs produce cycle-identical results to serial ones.

    Returns ``{variant: [VariantRun, ...]}`` plus the search results under
    the key ``"_search"`` when the profile-guided variant ran, and pipeline
    summaries under ``"_meta"``. ``recorder`` (a
    :class:`repro.obs.SearchRecorder`) observes the profile-guided search
    when the ``"phloem"`` variant is requested.
    """
    variants = variants or ("serial", "data-parallel", "phloem", "phloem-static", "manual")
    options = options or CompileOptions()
    function = adapter.function()
    out = {v: [] for v in variants}

    static_pipeline = None
    if "phloem-static" in variants or "phloem" in variants:
        static_pipeline = cache.cached_compile(function, options)

    best = None
    if "phloem" in variants:
        try:
            best, results = profile_guided_pipeline(
                adapter,
                train_inputs,
                config=config,
                max_stages=options.num_stages,
                passes=options.passes,
                recorder=recorder,
            )
            out["_search"] = results
        except PhloemError:
            best = None
    pgo_pipeline = best.pipeline if best is not None else static_pipeline

    manual_pipeline = adapter.manual() if "manual" in variants else None
    dp_pipeline = adapter.dp_pipeline(DP_THREADS) if "data-parallel" in variants else None

    def run_input(item):
        data = item.build()
        arrays, scalars = adapter.env(data)
        serial_result = cache.cached_serial_run(function, arrays, scalars, config)
        serial_ok = adapter.check(serial_result.arrays, data)
        records = []
        if "serial" in variants:
            record = _record("serial", item.name, serial_result, serial_ok)
            record.meta["speedup"] = 1.0
            records.append(record)

        if "data-parallel" in variants:
            dp_arrays, dp_scalars = adapter.dp_env(data, DP_THREADS)
            result = run_pipeline(dp_pipeline, dp_arrays, dp_scalars, config=config)
            record = _record("data-parallel", item.name, result, adapter.check_dp(result.arrays, data))
            record.meta["speedup"] = serial_result.cycles / result.cycles
            records.append(record)

        for variant, pipeline in (("phloem", pgo_pipeline), ("phloem-static", static_pipeline), ("manual", manual_pipeline)):
            if variant not in variants or pipeline is None:
                continue
            result = run_pipeline(pipeline, arrays, scalars, config=config)
            record = _record(variant, item.name, result, adapter.check(result.arrays, data))
            record.meta["speedup"] = serial_result.cycles / result.cycles
            records.append(record)
        return records

    job_list = [
        Job("%s/%s" % (adapter.name, item.name), run_input, item) for item in test_inputs
    ]
    for job_result in run_jobs(job_list, workers=jobs):
        for record in job_result.value:
            out[record.variant].append(record)

    out["_meta"] = {
        variant: pipeline
        for variant, pipeline in (
            ("phloem", pgo_pipeline),
            ("phloem-static", static_pipeline),
            ("manual", manual_pipeline),
            ("data-parallel", dp_pipeline),
        )
        if pipeline is not None
    }
    return out


def gmean_speedup(runs):
    """Geometric-mean speedup over serial across a variant's runs."""
    speeds = [r.meta.get("speedup") for r in runs if "speedup" in r.meta]
    if not speeds:
        return float("nan")
    return gmean(speeds)


def normalized_breakdowns(suite):
    """Average cycle breakdowns normalized to the serial baseline (Fig. 10)."""
    serial_cycles = {r.input_name: r.cycles for r in suite.get("serial", [])}
    out = {}
    for variant, runs in suite.items():
        if variant.startswith("_"):
            continue
        rows = []
        for run in runs:
            base = serial_cycles.get(run.input_name)
            if not base:
                continue
            rows.append({k: v / base for k, v in run.breakdown.items()})
        if rows:
            keys = rows[0].keys()
            out[variant] = {k: sum(r[k] for r in rows) / len(rows) for k in keys}
    return out


def normalized_energy(suite):
    """Average energy normalized to serial (Fig. 11)."""
    serial_energy = {
        r.input_name: sum(r.energy.values()) for r in suite.get("serial", [])
    }
    out = {}
    for variant, runs in suite.items():
        if variant.startswith("_"):
            continue
        rows = []
        for run in runs:
            base = serial_energy.get(run.input_name)
            if not base:
                continue
            rows.append({k: v / base for k, v in run.energy.items()})
        if rows:
            keys = rows[0].keys()
            out[variant] = {k: sum(r[k] for r in rows) / len(rows) for k in keys}
    return out
