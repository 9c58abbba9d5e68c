"""The ``FIGURES`` registry: the evaluation of Sec. VII as records and renderers.

Every entry regenerates one figure (or extension table) in two halves: a
*collector* that runs the experiment and yields its RunRecords
(:mod:`repro.obs.record`; Fig. 13 yields the search's speedup distributions)
and a pure *renderer* from that data to the ASCII table. Figures that
re-slice the same executions (Figs. 9, 10, 11 and 13 over the Fig. 9 suites)
name the same ``source`` and :func:`collect_figures` runs it once. Set
``REPRO_QUICK=1`` to shrink the evaluation for smoke runs.

Mirroring the paper's methodology (Sec. VI): PRD and Radii bound their
simulation time by running on the lower-diameter inputs (the paper uses
iteration sampling for the same reason); Taco benchmarks use the static
compilation flow.
"""

import collections
import math
from dataclasses import replace

from .. import cache
from ..core.autotune import speedup_distribution
from ..core.compiler import ALL_PASSES, CompileOptions
from ..core.replicate import replicate_pipeline
from ..frontend.lowering import compile_source
from ..ir.program import QUEUE_DEPTH
from ..obs.record import gmean_speedups, merge_records, normalized, record_of
from ..pipette.config import SCALED_1CORE, SCALED_4CORE
from ..taco import kernels as taco_kernels
from ..taco.parallel import stripe_data_parallel
from ..workloads import bc, bfs, cc, datasets, graphs, pr, prd, radii, replicated, spmm, spmv, sssp, tc
from ..workloads.dataflow import dataflow_variant
from . import report
from .harness import DP_THREADS, QUICK, BenchAdapter, profile_guided_pipeline, run_suite
from .parallel import Job, run_jobs

#: Per-benchmark test inputs (PRD/Radii use the low-diameter subset).
_GRAPH_INPUT_NAMES = {
    "bfs": ["coauthors", "hugetrace", "freescale", "skitter", "road-usa"],
    "cc": ["coauthors", "hugetrace", "freescale", "skitter", "road-usa"],
    "prd": ["coauthors", "freescale", "skitter"],
    "radii": ["coauthors", "freescale", "skitter"],
}


def _graphs(names):
    return [datasets.graph_by_name(name) for name in names]


# ---------------------------------------------------------------------------
# Fig. 6 — BFS pass ablation


FIG6_VARIANTS = [
    ("Dataflow-style", None),  # the Dynamatic-like negative result
    ("Q", ()),
    ("R+Q", ("recompute",)),
    ("CV+R+Q", ("recompute", "cv")),
    ("DCE+CV+R+Q", ("recompute", "cv", "dce")),
    ("CH+DCE+CV+R+Q", ("recompute", "cv", "dce", "handlers")),
    ("RA+R+Q", ("recompute", "ra")),
    ("All passes", ALL_PASSES),
    ("Manually pipelined", "manual"),
]


def fig6_records(config=SCALED_1CORE, input_name="freescale"):
    """BFS with each added pass, one record per variant (paper Fig. 6)."""
    graph = datasets.graph_by_name(input_name).build()
    arrays, scalars = bfs.make_env(graph)
    function = bfs.function()
    serial = cache.cached_run(function, arrays, scalars, config)
    assert bfs.check(serial.arrays, graph)

    records = []
    for label, passes in FIG6_VARIANTS:
        if passes == "manual":
            pipeline = bfs.manual_pipeline()
        elif passes is None:
            pipeline = dataflow_variant(function)
        else:
            pipeline = cache.cached_compile(function, CompileOptions(num_stages=4, passes=passes))
        result = cache.cached_run(pipeline, arrays, scalars, config)
        if not bfs.check(result.arrays, graph):
            raise AssertionError("fig6 variant %r produced wrong distances" % label)
        records.append(record_of("bfs", label, input_name, result, True, serial.cycles))
    return records


def render_fig6(records):
    """Speedup over serial BFS, one row per pass subset."""
    return report.render_table(
        "Fig. 6: BFS speedup with each added pass (input: %s)" % records[0]["input"],
        ["variant", "speedup over serial"],
        [[r["variant"], r["speedup"]] for r in records],
    )


# ---------------------------------------------------------------------------
# Fig. 9/10/11 — the overall comparison suites, and the GARDENIA extension


def _run_suites(label, specs, config, variants, jobs):
    """``{bench: SuiteResult}`` for ``specs`` = ``[(module, tests, train)]``.

    The suites are independent: with ``jobs`` > 1 they fan out over the
    worker pool (one job per benchmark), which is where the figures verb
    gets its cross-benchmark parallelism. Every run was validated against
    its workload's golden oracle; a failed check is an assertion, never a
    silent row.
    """
    job_list = [
        Job("%s:%s" % (label, module.NAME), run_suite, BenchAdapter(module), tests, train,
            config, variants)
        for module, tests, train in specs
    ]
    suites = {
        spec[0].NAME: result.value for spec, result in zip(specs, run_jobs(job_list, workers=jobs))
    }
    for bench, suite in suites.items():
        bad = [(r["variant"], r["input"]) for r in suite.records if not r["ok"]]
        if bad:
            raise AssertionError("%s %s failed validation: %s" % (label, bench, bad))
    return suites


def fig9_suites(jobs=None, config=SCALED_1CORE):
    """The Fig. 9 comparison for all five benchmarks: what Figs. 9, 10, 11
    and 13 are slices of."""
    count = 2 if QUICK else None
    specs = [
        (module, _graphs(_GRAPH_INPUT_NAMES[module.NAME][:count]), datasets.TRAIN_GRAPHS)
        for module in (bfs, cc, prd, radii)
    ]
    specs.append((spmm, datasets.TEST_MATRICES_SPMM[:count], datasets.TRAIN_MATRICES_SPMM))
    return _run_suites("suite", specs, config, None, jobs)


#: Per-workload test inputs. SSSP runs on the weighted Table IV
#: substitutes; TC and BC canonicalize (symmetrize) internally, so they
#: share the plain graph inputs with PageRank.
_GARDENIA_INPUT_NAMES = {
    "sssp": ["coauthors-w", "road-usa-w", "skitter-w"],
    "pr": ["coauthors", "freescale", "skitter"],
    "tc": ["coauthors", "freescale", "skitter"],
    "bc": ["coauthors", "freescale", "skitter"],
}

#: The GARDENIA suite compares the hand-written baselines against the
#: *static* compilation flow (no profile-guided search): the suite is a
#: breadth check across irregular shapes, and the search's training
#: simulations would dominate its wall-clock without changing the story.
_GARDENIA_VARIANTS = ("serial", "data-parallel", "phloem-static", "manual")


def gardenia_suites(jobs=None, config=SCALED_1CORE):
    """The GARDENIA comparison (SSSP, PageRank, TC, BC, SpMV).

    One input per workload under QUICK: five workloads x four variants is
    already a lot of simulation, and the first-listed inputs are the cheap
    ones.
    """
    count = 1 if QUICK else None
    specs = [
        (module, _graphs(_GARDENIA_INPUT_NAMES[module.NAME][:count]), [])
        for module in (sssp, pr, tc, bc)
    ]
    specs.append((spmv, datasets.TEST_MATRICES_SPMV[:count], []))
    return _run_suites("gardenia", specs, config, _GARDENIA_VARIANTS, jobs)


def suite_records(suites):
    """Every record of ``{bench: SuiteResult}``, in suite order."""
    return [record for suite in suites.values() for record in suite.records]


def _speedups(title):
    """Renderer: the gmean-speedup table of the records (Fig. 9's slice)."""
    return lambda records: report.render_speedups(title, gmean_speedups(records))


def _stacked(title, section, components):
    """Renderer: a record section normalised to serial (Figs. 10 and 11)."""
    return lambda records: report.render_stacked(
        title, normalized(records, section), components
    )


# ---------------------------------------------------------------------------
# Fig. 12 — Taco benchmarks


def _taco_cases():
    matrices = datasets.TEST_MATRICES_TACO
    if QUICK:
        # scircuit and cant, the smallest: SDDMM (skipped above 2 500 rows) runs on it.
        matrices = matrices[::4]
    return [(m.name, m.build()) for m in matrices]


def fig12_records(config=SCALED_1CORE):
    """Taco kernels: serial vs data-parallel vs Phloem-static (paper Fig. 12)."""
    specs = [
        ("spmv", taco_kernels.spmv_kernel(), lambda m: {"A": m, "x": taco_kernels.dense_input(m.ncols, 1)}, ()),
        (
            "residual",
            taco_kernels.residual_kernel(),
            lambda m: {
                "A": m,
                "x": taco_kernels.dense_input(m.ncols, 1),
                "b": taco_kernels.dense_input(m.nrows, 2),
            },
            (),
        ),
        (
            "mtmul",
            taco_kernels.mtmul_kernel(),
            lambda m: {
                "A": m,
                "x": taco_kernels.dense_input(m.nrows, 4),
                "z": taco_kernels.dense_input(m.ncols, 3),
                "alpha": taco_kernels.ALPHA,
                "beta": taco_kernels.BETA,
            },
            ("y",),
        ),
        (
            "sddmm",
            taco_kernels.sddmm_kernel(),
            lambda m: {
                "B": m,
                "C": (taco_kernels.dense_input(m.nrows * 12, 5), 12),
                "D": (taco_kernels.dense_input(12 * m.ncols, 6), m.ncols),
            },
            (),
        ),
    ]

    records = []
    for kname, kernel, data_builder, atomic_arrays in specs:
        function = compile_source(kernel.source)
        pipeline = cache.cached_compile(function, CompileOptions(num_stages=4, passes=ALL_PASSES))
        dp = stripe_data_parallel(function, DP_THREADS, atomic_arrays=atomic_arrays)
        for mat_name, matrix in _taco_cases():
            if kname == "sddmm" and matrix.nrows > 2500:
                continue  # the dense k-loop makes big inputs slow to simulate
            arrays, scalars = kernel.bind(data_builder(matrix))
            serial = cache.cached_run(function, arrays, scalars, config)
            runs = {
                "serial": serial,
                "data-parallel": cache.cached_run(
                    dp, arrays, dict(scalars, nthreads=DP_THREADS), config
                ),
                "phloem-static": cache.cached_run(pipeline, arrays, scalars, config),
            }
            for variant, run in runs.items():
                if not _same_output(run.arrays[kernel.output], serial.arrays[kernel.output]):
                    raise AssertionError(
                        "fig12 %s %s on %s differs from serial" % (kname, variant, mat_name)
                    )
                records.append(record_of(kname, variant, mat_name, run, True, serial.cycles))
    return records


def _same_output(got, want):
    """Ints equal, floats within ``rel_tol=1e-9``: a data-parallel run adds
    its float atomics in another order than the serial loop."""
    return len(got) == len(want) and all(
        math.isclose(g, w, rel_tol=1e-9) if isinstance(w, float) else g == w
        for g, w in zip(got, want)
    )


# ---------------------------------------------------------------------------
# Fig. 13 — pipeline-length distribution from the search


def fig13_distributions(suites, config=SCALED_1CORE):
    """``{bench: {stages+RAs: [training-set speedups]}}`` of the profile-guided
    searches (Fig. 13): BFS and SpMM from the Fig. 9 suites, plus SpMV."""
    table = {
        name: speedup_distribution(suites[name].search)
        for name in ("bfs", "spmm")
        if suites[name].search
    }

    # SpMV: run the search against its training matrices.
    kernel = taco_kernels.spmv_kernel()
    _, results = profile_guided_pipeline(
        compile_source(kernel.source),
        lambda m: kernel.bind({"A": m, "x": taco_kernels.dense_input(m.ncols, 1)}),
        datasets.TRAIN_MATRICES_SPMM,
        config=config,
    )
    table["spmv"] = speedup_distribution(results)
    return table


# ---------------------------------------------------------------------------
# Fig. 14 — replicated pipelines on 4 cores x 4 threads


def _fig14_input(app):
    """``(name, graph)`` of the synthetic input one Fig. 14 app runs on."""
    if QUICK:
        n, seed = 6000, 71
    elif app in ("bfs", "cc"):
        n, seed = 16000, 71
    else:
        n, seed = 3000, 72
    return "uniform-%d" % n, graphs.uniform_random(n, 5, seed=seed)


def _fig14_check(app, module, arrays, graph, variant):
    if app == "prd":
        exact = variant == "serial"
        return module.check(arrays, graph, exact=exact, tol=1e-6)
    return module.check(arrays, graph)


def fig14_records(config=SCALED_4CORE, replicas=4):
    """BFS/CC/PRD/Radii replicated over 4 cores (paper Fig. 14).

    Compares a single-thread serial run, a 16-thread data-parallel run,
    the replicated+distributed pipelines ("Phloem" bars), and hand-tuned
    replicated variants ("Manual" bars; for BFS a leaner source-sharded
    2-stage pipeline exploiting BFS's benign same-value races). The records'
    ``bench`` is ``<app>-x<replicas>``: these are not the one-core kernels
    of Fig. 9, and a fold over inputs must not mix the two.
    """
    records = []
    for app, module in (("bfs", bfs), ("cc", cc), ("prd", prd), ("radii", radii)):
        input_name, graph = _fig14_input(app)
        arrays, scalars = module.make_env(graph)
        function = module.function()
        serial = cache.cached_run(function, arrays, scalars, config)
        runs = [("serial", serial)]

        # Data-parallel over all 16 threads (4 per core).
        threads = config.cores * config.smt_threads
        dp = module.data_parallel(threads)
        dp_arrays, dp_scalars = module.make_env_dp(graph, threads)
        stage_cores = [i // config.smt_threads for i in range(threads)]
        runs.append((
            "data-parallel",
            cache.cached_run(dp, dp_arrays, dp_scalars, config, stage_cores=stage_cores),
        ))

        # (variants one simulation is recorded as, builder). Outside BFS the
        # hand-tuned structure is the compiler's (the paper's tweaks, e.g.
        # PRD's double replication, are deviations in EXPERIMENTS.md).
        cases = [(("phloem", "manual"), replicated.BUILDERS[app])]
        if app == "bfs":
            # BFS's flat pipeline goes through the fully automatic
            # replicate+distribute transform on the compiled pipeline.
            compiled = cache.cached_compile(
                function, CompileOptions(num_stages=4, passes=ALL_PASSES)
            )
            clones = replicate_pipeline(compiled, replicas)
            cases = [
                (("phloem",), lambda rid, _r: clones[rid]),
                (("manual",), replicated.BUILDERS[app]),
                # Ablation supporting the distribute pragma: replication alone
                # leaves all discovered work with the replica that found it.
                (("no-distribute",), replicated.bfs_replicated_nodist),
            ]
        for variants, builder in cases:
            pipelines = [builder(rid, replicas) for rid in range(replicas)]
            envs = replicated.make_envs(app, graph, replicas)
            result = cache.cached_replicated(
                [(pipelines[r], envs[r][0], envs[r][1], r) for r in range(replicas)],
                config,
            )
            runs += [(variant, result) for variant in variants]

        for variant, run in runs:
            if not _fig14_check(app, module, run.arrays, graph, variant):
                raise AssertionError("fig14 %s %s failed validation" % (app, variant))
            records.append(
                record_of(
                    "%s-x%d" % (app, replicas), variant, input_name, run, True, serial.cycles
                )
            )
    return records


def cells(records, row="bench"):
    """``{record[row]: {variant: speedup}}`` for figures whose every cell is
    one run (nothing to fold)."""
    table = {}
    for record in records:
        table.setdefault(record[row], {})[record["variant"]] = record["speedup"]
    return table


def render_fig14(records):
    """Speedups over the 1-thread serial run, one row per app."""
    return report.render_speedups(
        "Fig. 14: replicated pipelines on 4 cores (speedup over 1-thread serial)",
        {bench.rsplit("-x", 1)[0]: row for bench, row in cells(records).items()},
    )


# ---------------------------------------------------------------------------
# Extension: ablations of the architectural design choices (beyond the
# paper's figures, supporting DESIGN.md's parameter decisions)


def abl_records(config=SCALED_1CORE):
    """Sweep the Pipette parameters the paper fixes in Table III.

    Uses the fully-optimized BFS pipeline on the freescale input and
    records speedup over serial as one parameter varies at a time (the
    record's ``sweep``): queue depth (the paper's is
    :data:`~repro.ir.program.QUEUE_DEPTH`), RA parallelism, the prefetcher,
    and spatial (cross-core) vs SMT stage placement.
    """
    input_name = "freescale" if not QUICK else "coauthors"
    graph = datasets.graph_by_name(input_name).build()
    arrays, scalars = bfs.make_env(graph)
    function = bfs.function()
    serial = cache.cached_run(function, arrays, scalars, config)
    records = []

    def record(sweep, label, run, base=serial):
        if not bfs.check(run.arrays, graph):
            raise AssertionError("abl %s %s produced wrong distances" % (sweep, label))
        records.append(
            record_of("bfs", label, input_name, run, True, base.cycles, extra={"sweep": sweep})
        )

    for depth in (2, 4, 8, QUEUE_DEPTH, 64):
        pipeline = cache.cached_compile(
            function, CompileOptions(num_stages=4, passes=ALL_PASSES, queue_capacity=depth)
        )
        result = cache.cached_run(pipeline, arrays, scalars, config)
        record("queue depth", "depth=%d" % depth, result)

    pipeline = cache.cached_compile(function, CompileOptions(num_stages=4, passes=ALL_PASSES))
    for mshrs in (1, 4, 16, 32):
        cfg = replace(config, ra_mshrs=mshrs)
        result = cache.cached_run(pipeline, arrays, scalars, cfg)
        record("RA parallelism", "ra_mshrs=%d" % mshrs, result)

    for enabled in (False, True):
        cfg = replace(config, prefetch_enabled=enabled)
        base = cache.cached_run(function, arrays, scalars, cfg)
        result = cache.cached_run(pipeline, arrays, scalars, cfg)
        record("stride prefetcher", "prefetch=%s" % enabled, result, base=base)

    cfg4 = replace(config, cores=4)
    record("stage placement", "SMT (1 core)", cache.cached_run(pipeline, arrays, scalars, cfg4))
    record(
        "stage placement",
        "spatial (1 stage/core)",
        cache.cached_run(
            pipeline, arrays, scalars, cfg4, stage_cores=list(range(len(pipeline.stages)))
        ),
    )
    return records


def render_abl(records):
    """Speedup over serial BFS, one row per swept parameter."""
    return report.render_speedups(
        "Ablation (extension): Pipette design parameters on BFS",
        cells(records, row="sweep"),
    )


# ---------------------------------------------------------------------------
# The registry


class Figure(collections.namedtuple("Figure", "collect render source")):
    """One registry entry.

    ``collect`` runs the experiment and returns the figure's data — a list
    of RunRecords (Fig. 13: its distributions dict); ``render`` is a pure
    function from that data to the table text. ``source``, when set, is a
    ``source(jobs=None)`` producer of executions several figures re-slice:
    it runs once per :func:`collect_figures` call and ``collect`` receives
    its result.
    """

    __slots__ = ()


FIGURES = {
    "fig6": Figure(fig6_records, render_fig6, None),
    "fig9": Figure(suite_records, _speedups("Fig. 9: gmean speedup over serial"), fig9_suites),
    "fig10": Figure(
        suite_records,
        _stacked(
            "Fig. 10: cycles normalized to serial (issue/backend/queue/other)",
            "breakdown",
            ["issue", "backend", "queue", "other"],
        ),
        fig9_suites,
    ),
    "fig11": Figure(
        suite_records,
        _stacked(
            "Fig. 11: energy normalized to serial",
            "energy",
            ["core_dynamic", "core_static", "cache", "dram"],
        ),
        fig9_suites,
    ),
    "fig12": Figure(fig12_records, _speedups("Fig. 12: Taco benchmark gmean speedups"), None),
    "fig13": Figure(
        fig13_distributions,
        lambda table: report.render_distribution(
            "Fig. 13: training-set speedup distribution vs pipeline length", table
        ),
        fig9_suites,
    ),
    "fig14": Figure(fig14_records, render_fig14, None),
    "gardenia": Figure(
        suite_records, _speedups("GARDENIA suite: gmean speedup over serial"), gardenia_suites
    ),
    "abl": Figure(abl_records, render_abl, None),
}


def collect_figures(names, jobs=None):
    """``{name: data}`` for the named registry entries.

    A two-phase job graph, one pool level deep: each shared source runs once
    in this process and fans out per benchmark, figures without a source
    fan out one job each, and the figures that re-slice a source then
    collect in this process against its result.
    """
    shared = {}
    for name in names:
        source = FIGURES[name].source
        if source is not None and source not in shared:
            shared[source] = source(jobs=jobs)
    job_list = [Job(name, FIGURES[name].collect) for name in names if FIGURES[name].source is None]
    collected = {result.key: result.value for result in run_jobs(job_list, workers=jobs)}
    for name in names:
        if name not in collected:
            collected[name] = FIGURES[name].collect(shared[FIGURES[name].source])
    return {name: collected[name] for name in names}


def figure_records(collected):
    """The RunRecords of a :func:`collect_figures` result as one merged
    stream (Fig. 13's distributions are not records)."""
    return merge_records(*(data for data in collected.values() if isinstance(data, list)))
