"""What the benchmark measures: workloads, end-to-end metrics, per-layer metrics.

The one declaration every other file reads. ``BENCHMARK.json`` at the repo
root is ``manifest()`` written out (``test_e2e_smoke.py`` pins the two
together), ``run.py`` prints exactly these names, and ``README.md``
explains them.

Host time and simulated time are never mixed: cycles, µops and the
simulated speed-up are *simulated* (exact for a fixed seed); everything in
s/ms/us is *host* wall time (noisy; see common.py for how noise is avoided).
"""

import collections

#: Seconds one run measures for (``--seconds`` default, ``run_seconds``).
RUN_SECONDS = 10

#: Seed at which the simulated inputs are ``bench.perf.QUICK_INPUTS``
#: exactly, so cycles can be cross-checked against ``BENCH_pipette.json``.
DEFAULT_SEED = 7

ENGINES = ("reference", "fastpath", "batch")
VERBS = ("emit", "lint", "demo")
PASSES = ("decouple", "recompute", "cv", "dce", "handlers", "ra", "finalize")

SIM = ("sim_graph", "sim_sparse", "sim_baseline")
ALL = SIM + ("autotune", "compile_sweep", "frontdoor")

#: name -> why it exists (one line each; the long form is in README.md).
WORKLOADS = collections.OrderedDict(
    [
        (
            "sim_graph",
            "bfs/cc/sssp Phloem pipelines on power-law graphs: memory-, RA- and "
            "queue-bound long simulations, where refaccel.py is 9-18% of host time",
        ),
        (
            "sim_sparse",
            "spmm/spmv/tc pipelines: stage-code-bound simulations (refaccel.py 2-5%), "
            "so RA/mem/queue work should move sim_graph and not this one",
        ),
        (
            "sim_baseline",
            "serial and 4-thread data-parallel bfs/tc/spmv: same simulator, one stage, "
            "no queues or RAs, so an engine tuned for pipelines that costs baselines shows",
        ),
        (
            "autotune",
            "profile-guided searches with a cold cache: ~50 candidate compiles and ~50 "
            "short training simulations, where per-Machine set-up weighs most",
        ),
        (
            "compile_sweep",
            "cold source-to-pipeline compiles of 14 kernels x 3 stage counts x 2 pass "
            "sets: zero simulation, frontend/core/analysis/ir are the whole wall",
        ),
        (
            "frontdoor",
            "closed loop, one client: cold CLI starts plus a 10:9:1 emit/lint/demo mix "
            "over a unix socket to a daemon; cli/api/service/client are the wall",
        ),
    ]
)

Metric = collections.namedtuple("Metric", "name unit better bound meaning")

#: Measured with tracing off, defined on every workload, never zero.
END_TO_END = (
    Metric(
        "wall_s", "s", "lower", 0.25,
        "host: sum over the workload's operations of each operation's fastest wall "
        "across passes, GC quiesced",
    ),
    Metric(
        "op_p50_ms", "ms", "lower", 0.25,
        "host: median over the workload's operations (a simulation, a search, a "
        "compile, a request) of the operation's cost; the operation count is printed",
    ),
    Metric(
        "slowest_op_ms", "ms", "lower", 0.25,
        "host: cost of the workload's slowest operation, the longest single wait; on "
        "frontdoor this is the cold `python -m repro emit`",
    ),
    Metric(
        "setup_s", "s", "lower", 0.25,
        "host: interpreter start, imports, input generation, compile, daemon start - "
        "everything before the first timed operation; median of several fresh processes",
    ),
    Metric(
        "peak_rss_mb", "MiB", "lower", 0.10,
        "host: ru_maxrss of the workload process and of every process it waited for "
        "(the daemon and cold CLIs on frontdoor)",
    ),
)

Layer = collections.namedtuple("Layer", "name unit better on moves meaning")


def _family(template, members, unit, better, on, moves, meaning):
    return [
        Layer(template % m, unit, better, on, moves, meaning % m) for m in members
    ]


def _per_layer():
    out = []
    add = out.append
    # The issue's workload-specific end-to-end metrics. The runner's contract
    # wants every end-to-end metric on every workload, so these are reported
    # with the layers, from the traced run's own untraced phase.
    add(Layer("sim_kuops_per_s", "kuops/s", "higher", SIM, "wall_s",
              "simulated kuops per host second on the engine resolve_engine chose"))
    add(Layer("phloem_speedup_gmean", "ratio", "higher",
              ("sim_graph", "sim_sparse", "autotune"), "none",
              "simulated: gmean serial cycles / pipeline cycles (autotune: winners' "
              "training speedups); exact per seed; model unvalidated against hardware"))
    add(Layer("compile_p50_ms", "ms", "lower", ("compile_sweep",), "wall_s",
              "host: median cold source-to-pipeline latency over all samples"))
    add(Layer("cli_cold_p50_ms", "ms", "lower", ("frontdoor",), "slowest_op_ms",
              "host: median wall of a cold `python -m repro emit`"))
    add(Layer("rtt_p50_ms", "ms", "lower", ("frontdoor",), "op_p50_ms",
              "host: median daemon round trip over the request mix"))

    add(Layer("workloads.input_build_ms", "ms", "lower", SIM, "setup_s",
              "host: generating the seeded graphs/matrices"))
    add(Layer("workloads.env_ms", "ms", "lower", SIM, "setup_s",
              "host: adapter.env/dp_env array binding"))
    add(Layer("workloads.oracle_check_ms", "ms", "lower", SIM, "none",
              "host: golden-oracle checks per pass (outside the timed window)"))

    sweep = ("compile_sweep",)
    comp = "op_p50_ms"
    add(Layer("frontend.compile_source_p50_ms", "ms", "lower", sweep, comp,
              "host: parse + lower one source"))
    add(Layer("taco.lower_p50_ms", "ms", "lower", sweep, "setup_s",
              "host: lowering one taco expression to mini-C"))
    add(Layer("ir.fingerprint_p50_us", "us", "lower", sweep, comp,
              "host: canonical IR hash of one function (the cache key)"))
    add(Layer("ir.verify_p50_us", "us", "lower", sweep, comp,
              "host: verify_pipeline on one compiled pipeline"))
    add(Layer("ir.stmts_out", "count", "lower", sweep, "none",
              "IR statements over all compiled configs"))
    add(Layer("core.compile_p50_ms", "ms", "lower", sweep, comp,
              "host: compile_function alone"))
    add(Layer("core.compile_p99_ms", "ms", "lower", sweep, "slowest_op_ms",
              "host: compile_function tail"))
    out.extend(_family("core.pass_ms.%s", PASSES, "ms", "lower", sweep, "wall_s",
                       "host: pass %s summed over one sweep (PassProfiler)"))
    add(Layer("core.codegen_p50_ms", "ms", "lower", sweep, comp,
              "host: emit_pipeline C text"))
    add(Layer("core.stages_out", "count", "higher", sweep, "none",
              "stages over all compiled configs"))
    add(Layer("core.queues_out", "count", "lower", sweep, "none",
              "queues over all compiled configs"))
    add(Layer("core.ras_applied", "count", "higher", sweep, "none",
              "reference accelerators over all compiled configs"))
    add(Layer("analysis.sanitize_p50_ms", "ms", "lower", sweep, comp,
              "host: sanitize_pipeline"))
    add(Layer("analysis.perfmodel_p50_ms", "ms", "lower", sweep, comp,
              "host: perf_advisories"))

    add(Layer("cache.mem_hit_compile_p50_us", "us", "lower", sweep, "none",
              "host: cached_compile served from the in-process layer"))
    add(Layer("cache.disk_hit_compile_p50_us", "us", "lower", sweep, "none",
              "host: cached_compile after cache.reset(memory=True)"))
    add(Layer("cache.miss_compile_p50_ms", "ms", "lower", sweep, "none",
              "host: cached_compile into an empty cache directory"))
    add(Layer("cache.fingerprint_env_ms", "ms", "lower", ("sim_graph",), "none",
              "host: hashing one input environment (the baseline-cache key)"))
    out.extend(_family("cache.hit_ratio.%s", ("pipeline", "baseline", "search"),
                       "ratio", "higher", ("autotune", "frontdoor"), "wall_s",
                       "cache.stats() hits / lookups in the %s layer"))

    out.extend(_family("pipette.wall_s.%s", ENGINES, "s", "lower", SIM, "wall_s",
                       "host: the workload's operations once on the %s engine"))
    out.extend(_family("pipette.kuops_per_s.%s", ENGINES, "kuops/s", "higher", SIM, "wall_s",
                       "simulated kuops per host second on the %s engine"))
    out.extend(_family("pipette.setup_ms.%s", ENGINES, "ms", "lower", SIM, "wall_s",
                       "host: the same pipelines on 16-vertex inputs on %s: the fixed "
                       "per-Machine cost (moves wall_s on autotune)"))
    add(Layer("pipette.engines_agree", "bool", "higher", SIM, "none",
              "1 iff all three engines' stats.summary() are identical"))
    for key in ("cycles", "uops", "loads", "ra_loads", "dram_accesses", "mispredicts",
                "queue_stall_cycles", "mem_stall_cycles", "branch_stall_cycles",
                "barrier_stall_cycles", "queue_enqs", "queue_full_blocks",
                "queue_empty_blocks"):
        add(Layer("pipette.sim.%s" % key, "count", "lower", SIM, "none",
                  "simulated: %s over the workload's operations; a simulator-speed "
                  "change must leave it identical" % key))
    for part in ("stagecode", "sched", "mem", "refaccel", "queues", "machine", "other"):
        add(Layer("pipette.host_share.%s" % part, "ratio", "lower", SIM, "wall_s",
                  "host: cProfile tottime share of %s on the first operation" % part))
    add(Layer("pipette.profile_inflation", "ratio", "lower", SIM, "none",
              "host: profiled / unprofiled wall of that operation"))

    tune = ("autotune",)
    add(Layer("bench.search_candidates", "count", "lower", tune, "wall_s",
              "candidates enumerated over the three searches"))
    add(Layer("bench.search_sims", "count", "lower", tune, "wall_s",
              "training simulations run over the three searches"))
    add(Layer("bench.search_compile_share", "ratio", "lower", tune, "wall_s",
              "host: share of the replayed searches outside simulation "
              "(enumeration, compile, static scoring)"))
    add(Layer("bench.search_overhead_ratio", "ratio", "lower", tune, "wall_s",
              "host: api.handle(SearchRequest) wall / replayed search_pipelines wall "
              "(api + harness + cache on top of compile and simulate)"))

    door = ("frontdoor",)
    out.extend(_family("api.handle_p50_ms.%s", VERBS, "ms", "lower", door, "op_p50_ms",
                       "host: in-process api.handle of the %s requests"))
    out.extend(_family("service.rtt_p50_ms.%s", VERBS, "ms", "lower", door, "op_p50_ms",
                       "host: daemon round trip of the %s requests"))
    out.extend(_family("service.overhead_p50_ms.%s", VERBS, "ms", "lower", door, "op_p50_ms",
                       "host: rtt minus in-process handle for %s"))
    add(Layer("service.ping_p50_us", "us", "lower", door, "op_p50_ms",
              "host: control-plane ping round trip"))
    add(Layer("service.rtt_p99_ms", "ms", "lower", door, "none",
              "host: round-trip tail over the mix"))
    add(Layer("service.server_p50_ms", "ms", "lower", door, "op_p50_ms",
              "host: median from the daemon's own 1-2-5 latency histogram"))
    add(Layer("service.rejected", "count", "lower", door, "none",
              "requests the daemon's governor rejected (must be 0)"))
    add(Layer("cli.interp_start_ms", "ms", "lower", door, "slowest_op_ms",
              "host: `python -c pass`"))
    add(Layer("cli.import_ms", "ms", "lower", door, "slowest_op_ms",
              "host: `import repro.cli` minus interpreter start"))
    out.extend(_family("cli.verb_p50_ms.%s", ("emit", "lint"), "ms", "lower", door,
                       "slowest_op_ms", "host: cold `python -m repro %s`"))

    add(Layer("obs.tracer_overhead_ratio", "ratio", "lower", ("sim_graph",), "none",
              "host: run_pipeline(tracer=Tracer()) / plain on bfs"))
    add(Layer("obs.passprofiler_overhead_ratio", "ratio", "lower", sweep, "none",
              "host: compile_function(profiler=PassProfiler()) / plain"))

    for group, members in SHARE_GROUPS.items():
        add(Layer("share.%s" % group, "ratio", "lower", ALL, "wall_s",
                  "host: span self time of %s / traced wall" % "+".join(members)))
    add(Layer("host.slowdown", "ratio", "lower", ALL, "none",
              "host: median over samples of the probe loop's time next to the sample / "
              "fastest probe seen: the speed-mode noise settling could not avoid"))
    add(Layer("trace.overhead_ratio", "ratio", "lower", ALL, "none",
              "host: traced / untraced wall_s within the traced run"))
    add(Layer("trace.spans", "count", "lower", ALL, "none",
              "spans recorded (written to trace.json)"))
    return tuple(out)


#: Span layer -> column of the share table. ``benchmark`` is the root spans'
#: own self time: the load generator's bookkeeping between layer calls.
SHARE_GROUPS = collections.OrderedDict(
    [
        ("pipette", ("pipette",)),
        ("compiler", ("frontend", "taco", "ir", "core", "analysis")),
        ("frontdoor", ("cli", "api", "service")),
        ("cache", ("cache",)),
        ("workloads", ("workloads", "bench")),
        ("benchmark", ("benchmark",)),
    ]
)

PER_LAYER = _per_layer()


def manifest():
    """The ``BENCHMARK.json`` object."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
