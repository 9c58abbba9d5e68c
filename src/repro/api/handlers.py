"""One entry point per verb: ``handle(request) -> Response``.

The bodies of the one-shot CLI verbs live here, behind the typed requests
of :mod:`repro.api.requests`. Each runner prints exactly what the
pre-service CLI printed — :func:`handle` captures that stdout into
``Response.output``, so ``repro emit`` and a daemon-submitted
:class:`~repro.api.requests.CompileRequest` produce byte-identical
payloads from the same code path. Alongside the text, runners collect the
structured record stream (RunRecords, diagnostics, perf records) into
``Response.records`` for JSONL streaming, and :func:`handle` stamps the
per-request :mod:`repro.cache` hit/miss delta into ``Response.cache``.
A verb that declares ``MEMOIZED`` (``emit``, ``lint``) is answered from
:func:`repro.cache.cached_answer`: its runner and the capture run only on a
miss, and a warm request is a lookup of the finished answer.

Telemetry stays on stderr through :mod:`repro.obs.log` and is therefore
*server-side* under a daemon; per-request ``quiet`` flags are restored
after every request so a long-lived worker never leaks one client's
preference into the next request.

Each runner imports the toolchain layers it runs, where it runs them: a
one-shot ``repro emit`` never loads the simulator, the workloads or the
bench harness (``repro serve`` loads everything once, before it forks).
"""

import contextlib
import io
import json as _json

from .. import cache
from ..obs import get_quiet, set_quiet
from . import requests

#: The variants ``demo``/``metrics`` run and print, in order (all use the
#: unified adapter + run_suite path; "phloem-static" is the compiled
#: pipeline).
DEMO_VARIANTS = ("serial", "data-parallel", "phloem-static", "manual")


def _compile_options(req):
    """The ``CompileOptions`` of an ``emit``/``lint`` request (``passes`` is
    CLI-style: None = all, else comma-separated names)."""
    from ..core.options import ALL_PASSES, CompileOptions

    passes = ALL_PASSES if req.passes is None else tuple(p for p in req.passes.split(",") if p)
    return CompileOptions(num_stages=req.stages, passes=passes, verify_each=req.verify_each)


def _demo_input(bench, size, seed):
    """One synthetic input item for ``demo``-family verbs (graph/matrix).

    A size below 1 is a bad request (:class:`~repro.api.requests.ApiError`),
    refused here before any input is built: the CLI exits 2 with one line,
    the daemon answers ``bad-request``.
    """
    if size < 1:
        raise requests.ApiError("size must be at least 1, got %d" % size)
    from ..workloads.datasets import Input
    from ..workloads.graphs import uniform_random
    from ..workloads.matrices import random_matrix

    if bench in ("spmm", "spmv"):
        rows = max(40, size // (40 if bench == "spmm" else 4))
        return Input("demo", "synthetic", lambda: random_matrix(rows, 8, seed=seed))
    return Input("demo", "synthetic", lambda: uniform_random(size, 5, seed=seed))


# ---------------------------------------------------------------------------
# Per-verb runners: print the one-shot payload, return
# ``(exit_code, records, extras)``

#: Verb -> runner, filled by :func:`runner`.
_RUNNERS = {}


def runner(request_cls):
    """Decorator: the function that executes ``request_cls``'s verb."""

    def register(function):
        _RUNNERS[request_cls.VERB] = function
        return function

    return register


@runner(requests.CompileRequest)
def _run_emit(req):
    from ..core.options import pipeline_summary
    from ..frontend.lowering import compile_source

    # All four formats render the one memoized pipeline.
    options = _compile_options(req)
    pipeline = cache.cached_compile(compile_source(req.source, name=req.name), options)
    summary = pipeline_summary(pipeline)
    if req.fmt == "summary":
        print(summary)
    elif req.fmt == "ir":
        from ..ir.printer import format_pipeline

        print(format_pipeline(pipeline))
    elif req.fmt == "diagram":
        from ..core.viz import ascii_diagram

        print(ascii_diagram(pipeline))
    else:
        from ..core.codegen import emit_pipeline

        print(emit_pipeline(pipeline))
    return 0, [], {"summary": summary}


@runner(requests.LintRequest)
def _run_lint(req):
    from ..diag import LINT_REPORT_SCHEMA, LINT_REPORT_VERSION

    targets = []
    if req.bench is not None:
        from ..workloads import ALL_BENCHMARKS

        if req.bench != "all" and req.bench not in ALL_BENCHMARKS:
            print(
                "unknown benchmark %r (choose from %s, all)"
                % (req.bench, ", ".join(sorted(ALL_BENCHMARKS)))
            )
            return 2, [], {}
        names = sorted(ALL_BENCHMARKS) if req.bench == "all" else [req.bench]
        for bench in names:
            targets.append((bench, ALL_BENCHMARKS[bench].SOURCE, None, None))
    if req.source is not None:
        targets.append((req.file, req.source, req.name, req.file))
    if not targets:
        print("lint: give a FILE.c, --bench NAME, or --bench all")
        return 2, [], {}

    options = _compile_options(req)
    failed = False
    errors = warnings = 0
    reports = []
    records = []
    for label, source, name, path in targets:
        diags = cache.cached_lint(source, name, options, file=path, perf=req.perf)
        failed = failed or diags.has_errors
        errors += len(diags.errors())
        warnings += len(diags.warnings())
        records.extend(dict(d.as_dict(), target=label) for d in diags.sorted())
        if req.json:
            reports.append(
                {
                    "target": label,
                    "diagnostics": [d.as_dict() for d in diags.sorted()],
                    "errors": len(diags.errors()),
                    "warnings": len(diags.warnings()),
                }
            )
        elif len(diags) == 0:
            print("%s: clean" % label)
        else:
            print("%s:" % label)
            for line in diags.render_text().splitlines():
                print("  " + line)
    if req.json:
        envelope = {
            "schema": LINT_REPORT_SCHEMA,
            "version": LINT_REPORT_VERSION,
            "reports": reports,
        }
        print(_json.dumps(envelope, indent=2, sort_keys=True))
    return (1 if failed else 0), records, {"errors": errors, "warnings": warnings}


@runner(requests.RunRequest)
def _run_demo(req):
    from ..bench.harness import adapter_for, run_suite
    from ..core.options import CompileOptions, pipeline_summary
    from ..pipette.config import SCALED_1CORE

    item = _demo_input(req.bench, req.size, req.seed)
    print("input: %r" % item.build())
    suite = run_suite(
        adapter_for(req.bench),
        [item],
        [],
        config=SCALED_1CORE,
        variants=DEMO_VARIANTS,
        options=CompileOptions(num_stages=req.stages),
    )
    print("phloem pipeline: %s\n" % pipeline_summary(suite.pipelines["phloem-static"]))
    print("%-16s %14s %9s %6s" % ("variant", "cycles", "speedup", "ok"))
    for r in suite.records:
        print("%-16s %14.0f %8.2fx %6s" % (r["variant"], r["cycles"], r["speedup"], r["ok"]))
    ok = all(r["ok"] for r in suite.records)
    speedup = next(r["speedup"] for r in suite.records if r["variant"] == "phloem-static")
    return (0 if ok else 1), suite.records, {"speedup": speedup}


@runner(requests.SearchRequest)
def _run_search(req):
    from ..bench.harness import adapter_for, profile_guided_pipeline
    from ..bench.report import render_distribution
    from ..core.autotune import speedup_distribution
    from ..core.options import pipeline_summary
    from ..pipette.config import SCALED_1CORE
    from ..workloads import datasets

    adapter = adapter_for(req.bench)
    train = (
        datasets.TRAIN_MATRICES_SPMM
        if req.bench in ("spmm", "spmv")
        else datasets.TRAIN_GRAPHS
    )
    best, results = profile_guided_pipeline(
        adapter.function(), adapter.env, train, config=SCALED_1CORE,
        prune_static=req.prune_static,
    )
    if req.prune_static:
        # len(results) is cached with the search, so this line is stable
        # across warm and cold runs (pruned candidates are never scored).
        print("static pruning: simulated %d surviving candidates" % len(results))
    print(
        render_distribution(
            "training-set speedups by pipeline length",
            {req.bench: speedup_distribution(results)},
        )
    )
    records = [
        {"indices": list(r.indices), "units": r.num_units, "speedup": r.speedup}
        for r in results
    ]
    best_dict = None
    if best is not None:
        print("\nbest: %r" % best)
        print("      %s" % pipeline_summary(best.pipeline))
        best_dict = {
            "indices": list(best.indices),
            "units": best.num_units,
            "speedup": best.speedup,
            "summary": pipeline_summary(best.pipeline),
        }
    return 0, records, {"best": best_dict}


@runner(requests.FiguresRequest)
def _run_figures(req):
    import time

    from .. import obs
    from ..bench import experiments, parallel, report

    names = req.names or sorted(n for n in experiments.FIGURES if n.startswith("fig"))
    for name in names:
        if name not in experiments.FIGURES:
            print(
                "unknown figure %r (choose from %s)"
                % (name, ", ".join(sorted(experiments.FIGURES)))
            )
            return 2, [], {}

    jobs = parallel.resolve_jobs(req.jobs)
    parallel.clear_job_log()
    cache_before = cache.stats()
    start = time.perf_counter()
    collected = experiments.collect_figures(names, jobs=jobs)
    for name in names:
        print(experiments.FIGURES[name].render(collected[name]))
        print()

    # Per-figure record lists merge deterministically whatever the worker
    # count; every record carries this request's cache counts.
    counts = cache.stats_since(cache_before)
    records = obs.stamp_cache(experiments.figure_records(collected), counts)
    if req.metrics_out:
        obs.write_jsonl(records, req.metrics_out)
        obs.log("metrics: %d records -> %s", len(records), req.metrics_out)

    # Harness telemetry on stderr (obs.log: --quiet/REPRO_QUIET silences
    # it), keeping stdout byte-identical to a serial, cache-less run:
    # per-job wall times and cache hit rates (a cold-vs-warm pair of
    # invocations shows the caches working).
    elapsed = time.perf_counter() - start
    obs.log("%s", report.render_job_times(parallel.job_log(), workers=jobs, total_wall=elapsed))
    obs.log("%s", report.render_cache_stats(counts, directory=cache.cache_dir()))
    return 0, records, {}


@runner(requests.TraceRequest)
def _run_trace(req):
    from .. import obs
    from ..bench.harness import adapter_for
    from ..core.compiler import compile_function
    from ..core.options import CompileOptions, pipeline_summary
    from ..pipette.config import SCALED_1CORE
    from ..runtime.executor import run_pipeline

    adapter = adapter_for(req.bench)
    item = _demo_input(req.bench, req.size, req.seed)
    data = item.build()
    arrays, scalars = adapter.env(data)
    function = adapter.function()
    options = CompileOptions(num_stages=req.stages)

    cache_before = cache.stats()
    profiler = obs.PassProfiler() if req.profile_passes else None
    if profiler is not None:
        pipeline = compile_function(function, options=options, profiler=profiler)
    else:
        pipeline = cache.cached_compile(function, options)

    serial = cache.cached_run(function, arrays, scalars, SCALED_1CORE)
    tracer = obs.Tracer()
    tracer.meta.update({"bench": req.bench, "input": item.name})
    result = run_pipeline(pipeline, arrays, scalars, config=SCALED_1CORE, tracer=tracer)
    ok = adapter.check(result.arrays, data)

    print("pipeline: %s" % pipeline_summary(pipeline))
    print(
        "serial %.0f cycles, traced pipeline %.0f cycles (%.2fx), ok=%s"
        % (serial.cycles, result.cycles, serial.cycles / result.cycles, ok)
    )
    print()
    print(obs.render_timeline(obs.summarize_timeline(tracer)))
    if profiler is not None:
        print()
        print(profiler.render())

    if req.trace_out:
        obs.write_chrome_trace(tracer, req.trace_out, meta={"bench": req.bench})
        obs.log("trace: %d events -> %s (open at ui.perfetto.dev)", len(tracer), req.trace_out)
    records = [
        obs.record_of(req.bench, "serial", item.name, serial, True, serial.cycles),
        obs.record_of(
            req.bench, "phloem-static", item.name, result, ok, serial.cycles,
            cache_stats=cache.stats_since(cache_before),
            passes=None if profiler is None else profiler.as_dicts(),
        ),
    ]
    if req.metrics_out:
        obs.write_jsonl(records, req.metrics_out)
        obs.log("metrics: %d records -> %s", len(records), req.metrics_out)
    return (0 if ok else 1), records, {"cycles": result.cycles}


@runner(requests.MetricsRequest)
def _run_metrics(req):
    from .. import obs
    from ..bench.harness import adapter_for, run_suite
    from ..core.compiler import compile_function
    from ..core.options import CompileOptions
    from ..pipette.config import SCALED_1CORE

    adapter = adapter_for(req.bench)
    item = _demo_input(req.bench, req.size, req.seed)
    options = CompileOptions(num_stages=req.stages)
    cache_before = cache.stats()
    suite = run_suite(
        adapter,
        [item],
        [],
        config=SCALED_1CORE,
        variants=DEMO_VARIANTS,
        options=options,
    )
    records = obs.stamp_cache(suite.records, cache.stats_since(cache_before))
    if req.profile_passes:
        profiler = obs.PassProfiler()
        compile_function(adapter.function(), options=options, profiler=profiler)
        for record in records:
            if record["variant"] == "phloem-static":
                record["passes"] = profiler.as_dicts()
    if req.metrics_out:
        obs.write_jsonl(records, req.metrics_out)
        obs.log("metrics: %d records -> %s", len(records), req.metrics_out)
    else:
        for record in records:
            print(_json.dumps(record, sort_keys=True))
    return (0 if all(r.get("ok", True) for r in records) else 1), records, {}


@runner(requests.BenchPerfRequest)
def _run_bench_perf(req):
    from ..bench import perf as perfmod

    for bench in req.benches:
        if bench not in perfmod.SCALES["quick"]:
            print(
                "unknown benchmark %r (choose from %s)"
                % (bench, ", ".join(sorted(perfmod.SCALES["quick"])))
            )
            return 2, [], {}
    status, records = perfmod.run_cli(req)
    extras = {"aggregate": perfmod.aggregate(records) if records else None}
    return status, perfmod.obs_records(records), extras


@runner(requests.ReportRequest)
def _run_report(req):
    import os

    from .. import obs

    if not req.results_dir or not os.path.isdir(req.results_dir):
        print("report: results directory %r not found" % (req.results_dir,))
        return 2, [], {}
    extra = (req.baseline,) if req.baseline else ()
    report = obs.collect(req.results_dir, extra_files=extra, title=req.title)
    markdown = obs.render_markdown(report)
    written = []
    if req.out:
        with open(req.out, "w") as handle:
            handle.write(markdown)
        written.append(req.out)
    if req.html_out:
        with open(req.html_out, "w") as handle:
            handle.write(obs.render_html(report))
        written.append(req.html_out)
    if not req.out:
        print(markdown, end="")
    for path in written:
        obs.log("report: wrote %s", path)
    summary = report.summary()
    return 0, [summary], {"summary": summary}


def _render(run, request):
    """Run ``request``'s runner: ``(exit_code, output, records, extras)``,
    with its stdout captured as ``output``."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        exit_code, records, extras = run(request)
    return exit_code, buffer.getvalue(), records, extras


def _answer(run, request):
    """``request``'s answer, from :func:`repro.cache.cached_answer` when its
    verb declares ``MEMOIZED``, else freshly rendered."""
    if not request.MEMOIZED:
        return _render(run, request)
    try:
        return cache.cached_answer(request.VERB, request.fields(), lambda: _render(run, request))
    except cache.Miss:
        # Not in the memo, and the caller may not compute (the daemon's
        # event loop): options the compiler refuses are still refused here
        # rather than on a worker.
        _compile_options(request)
        raise


def handle(request):
    """Execute one API request and return its typed :class:`Response`.

    The runner's stdout is captured into ``Response.output`` (the CLI
    prints it verbatim; the daemon ships it over the socket), the cache
    hit/miss delta over the request lands in ``Response.cache``, and a
    request's ``quiet`` flag is applied here and undone on the way out.
    A memoized verb's warm request runs no runner at all: its answer is a
    :func:`repro.cache.cached_answer` hit, whose records are the memo's
    (read them, don't mutate them).
    Toolchain errors (:class:`~repro.errors.PhloemError`) propagate to the
    caller: the one-shot CLI fails loudly exactly as it always did, while
    the service worker wraps them into structured error responses.
    """
    if isinstance(request, dict):
        request = requests.Request.from_wire(request)
    run = _RUNNERS.get(request.VERB)
    if run is None:
        raise requests.ApiError("no handler for verb %r" % (request.VERB,))
    before = cache.stats()
    old_quiet = get_quiet()
    try:
        if getattr(request, "quiet", False):
            set_quiet(True)
        exit_code, output, records, extras = _answer(run, request)
    finally:
        set_quiet(old_quiet)
    return request.RESPONSE(
        verb=request.VERB,
        exit_code=exit_code,
        output=output,
        records=list(records),
        cache=cache.stats_since(before),
        **extras,
    )
