"""sim_graph, sim_sparse, sim_baseline: the simulator is the wall.

Inputs are ``bench.perf.QUICK_INPUTS`` shapes re-seeded from ``--seed``, so
at the default seed the simulated cycles equal ``BENCH_pipette.json``.
Every result goes through the workload's golden oracle; the traced run adds
the three-engine matrix (bit-identical ``stats.summary()`` required), the
serial baselines for the simulated speedup, and one ``cProfile`` pass.
"""

import cProfile
import json
import os
import pstats
import statistics

from repro import cache
from repro.bench.harness import adapter_for
from repro.bench.perf import QUICK_INPUTS, build_input
from repro.core import gmean
from repro.core.compiler import CompileOptions, compile_function
from repro.obs import Tracer
from repro.pipette.fastpath import resolve_engine
from repro.runtime.executor import run_pipeline, run_serial

from common import Workload, summarize
from spec import DEFAULT_SEED, ENGINES

DP_THREADS = 4

#: workload -> [(bench, variant)]; variant is static | serial | dp.
OPERATIONS = {
    "sim_graph": [("bfs", "static"), ("cc", "static"), ("sssp", "static")],
    "sim_sparse": [("spmm", "static"), ("spmv", "static"), ("tc", "static")],
    "sim_baseline": [
        (bench, variant) for bench in ("bfs", "tc", "spmv") for variant in ("serial", "dp")
    ],
}

#: Source file (or generated-code pseudo file) -> simulator part.
HOST_PARTS = {
    "fastpath.py": "stagecode", "batchpath.py": "stagecode", "interp.py": "stagecode",
    "<string>": "stagecode", "sched.py": "sched", "mem.py": "mem",
    "refaccel.py": "refaccel", "queues.py": "queues", "machine.py": "machine",
}


def input_spec(bench, seed, tiny=False):
    kind, params = QUICK_INPUTS[bench]
    params = dict(params, seed=seed)
    if tiny:
        # 16 vertices/rows: the simulation is over at once, so the wall is
        # Machine construction and stage compilation.
        params["n"] = 16
        for key in ("deg", "nnz_per_row"):
            if key in params:
                params[key] = 2
    return kind, params


class SimOp:
    """One (bench, variant) bound to one generated input."""

    def __init__(self, bench, variant, spec, rec):
        self.id = "%s.%s" % (bench, variant)
        self.bench = bench
        self.variant = variant
        self.adapter = adapter_for(bench)
        self.function = self.adapter.function()
        with rec.span("workloads", "build_input"):
            self.data = build_input(spec)
        with rec.span("workloads", "env"):
            if variant == "dp":
                self.arrays, self.scalars = self.adapter.dp_env(self.data, DP_THREADS)
            else:
                self.arrays, self.scalars = self.adapter.env(self.data)
        self.pipeline = None
        if variant == "static":
            with rec.span("core", "compile_function"):
                self.pipeline = compile_function(self.function, options=CompileOptions())
        elif variant == "dp":
            self.pipeline = self.adapter.dp_pipeline(DP_THREADS)
        self.cycles = None
        self.summary = None

    def run(self, engine=None, tracer=None):
        if self.pipeline is None:
            return run_serial(self.function, self.arrays, self.scalars, engine=engine)
        return run_pipeline(
            self.pipeline, self.arrays, self.scalars, engine=engine, tracer=tracer
        )

    def check(self, result):
        if self.variant == "dp":
            return self.adapter.check_dp(result.arrays, self.data)
        return self.adapter.check(result.arrays, self.data)


class SimWorkload(Workload):
    def __init__(self, name):
        self.name = name
        self.ops = []
        self.pinned = {}

    def setup(self, ctx):
        self.ops = [
            SimOp(bench, variant, input_spec(bench, ctx.seed), ctx.rec)
            for bench, variant in OPERATIONS[self.name]
        ]
        pipelines = [op.pipeline for op in self.ops if op.pipeline is not None]
        ctx.info["engine"] = resolve_engine(pipelines[0])
        if ctx.seed == DEFAULT_SEED and os.path.exists("BENCH_pipette.json"):
            with open("BENCH_pipette.json") as handle:
                self.pinned = {r["bench"]: r["cycles"] for r in json.load(handle)["records"]}

    def one_pass(self, ctx):
        for op in self.ops:
            self._sample(ctx, op)

    def _sample(self, ctx, op):
        def run():
            with ctx.rec.span("pipette", "run_" + op.variant):
                return op.run()

        result = ctx.op(op.id, run, precise=True)
        if result is None:
            return
        with ctx.rec.span("workloads", "oracle_check", op=op.id):
            ok = op.check(result)
        problems = [] if ok else ["golden oracle mismatch"]
        if op.cycles is not None and op.cycles != result.cycles:
            problems.append("cycles %r then %r: nondeterministic" % (op.cycles, result.cycles))
        pinned = self.pinned.get(op.bench) if op.variant == "static" else None
        if pinned is not None and pinned != result.cycles:
            problems.append("cycles %r != BENCH_pipette.json %r" % (result.cycles, pinned))
        op.cycles = result.cycles
        op.summary = result.stats.summary()
        if problems:
            ctx.fail(op.id, "; ".join(problems))

    # -- traced run only ------------------------------------------------------

    def extras(self, ctx, untraced):
        layers = ctx.layers
        base = summarize(untraced.samples)["wall_s"]
        kuops = sum(op.summary["uops"] for op in self.ops) / 1e3
        layers["sim_kuops_per_s"] = kuops / base

        named = [s for s in ctx.rec.spans if s["layer"] == "workloads"]
        for key, name in (("input_build_ms", "build_input"), ("env_ms", "env")):
            layers["workloads." + key] = 1e3 * sum(
                s["end"] - s["start"] for s in named if s["name"] == name
            )
        checks = [s["end"] - s["start"] for s in named if s["name"] == "oracle_check"]
        layers["workloads.oracle_check_ms"] = (
            1e3 * sum(checks) / max(1, len(checks)) * len(self.ops)
        )

        self._engine_matrix(ctx, kuops)
        self._sim_counters(layers)
        self._profile(ctx, untraced)
        self._speedup(ctx)
        if self.name == "sim_graph":
            first = self.ops[0]
            plain = statistics.median(untraced.samples[first.id])
            _, traced_wall = ctx.clock(first.run, tracer=Tracer(), precise=True)
            layers["obs.tracer_overhead_ratio"] = traced_wall / plain
            walls = [
                ctx.clock(cache.fingerprint_env, first.arrays, first.scalars)[1]
                for _ in range(3)
            ]
            layers["cache.fingerprint_env_ms"] = statistics.median(walls) * 1e3

    def _engine_matrix(self, ctx, kuops):
        layers = ctx.layers
        agree = 1
        tiny = [
            SimOp(op.bench, op.variant, input_spec(op.bench, ctx.seed, tiny=True), ctx.rec)
            for op in self.ops
        ]
        for engine in ENGINES:
            wall = 0.0
            for op in self.ops:
                ctx.attempted += 1
                result, took = ctx.clock(op.run, engine=engine, precise=True)
                wall += took
                if result.stats.summary() != op.summary:
                    agree = 0
                    ctx.fail(op.id, "engine %s diverged from %s" % (engine, ctx.info["engine"]))
            layers["pipette.wall_s." + engine] = wall
            layers["pipette.kuops_per_s." + engine] = kuops / wall
            layers["pipette.setup_ms." + engine] = 1e3 * sum(
                statistics.median(ctx.clock(small.run, engine=engine)[1] for _ in range(3))
                for small in tiny
            )
        layers["pipette.engines_agree"] = agree

    def _sim_counters(self, layers):
        def total(key):
            return sum(op.summary[key] for op in self.ops)

        def queues(key):
            return sum(q[key] for op in self.ops for q in op.summary["queues"].values())

        layers["pipette.sim.cycles"] = total("wall_cycles")
        for key in ("uops", "loads", "ra_loads", "dram_accesses", "mispredicts", "queue_enqs"):
            layers["pipette.sim." + key] = total(key)
        for key in ("queue", "mem", "branch", "barrier"):
            layers["pipette.sim.%s_stall_cycles" % key] = total(key + "_stall")
        layers["pipette.sim.queue_full_blocks"] = queues("full_blocks")
        layers["pipette.sim.queue_empty_blocks"] = queues("empty_blocks")

    def _profile(self, ctx, untraced):
        op = self.ops[0]
        profiler = cProfile.Profile()
        _, wall = ctx.clock(profiler.runcall, op.run, precise=True)
        parts = dict.fromkeys(set(HOST_PARTS.values()) | {"other"}, 0.0)
        for (filename, _line, _func), row in pstats.Stats(profiler).stats.items():
            base = os.path.basename(filename)
            part = "stagecode" if base.startswith("<batchpath:") else HOST_PARTS.get(base, "other")
            parts[part] += row[2]
        total = sum(parts.values())
        for part, tottime in parts.items():
            ctx.layers["pipette.host_share." + part] = tottime / total
        ctx.layers["pipette.profile_inflation"] = wall / statistics.median(
            untraced.samples[op.id]
        )

    def _speedup(self, ctx):
        ratios = []
        for op in self.ops:
            if op.variant != "static":
                continue
            serial = run_serial(op.function, op.arrays, op.scalars)
            if not op.adapter.check(serial.arrays, op.data):
                ctx.fail(op.id, "serial baseline failed the golden oracle")
            ratios.append(serial.cycles / op.cycles)
        if ratios:
            ctx.layers["phloem_speedup_gmean"] = gmean(ratios)
