"""compile_sweep: cold, cache-free source -> pipeline -> analyses -> C text.

Zero simulation: the only workload where ``frontend``/``core``/``analysis``/
``ir`` are the whole wall. The configuration list is pinned in setup
(anything that does not compile there is dropped, so a later compile
failure is a failure), and every timed compile must emit the same C text
the setup compile did.
"""

import random
import statistics

from repro import cache
from repro.analysis.perfmodel import perf_advisories
from repro.analysis.sanitize import sanitize_pipeline
from repro.core import CompileOptions, compile_function, emit_pipeline
from repro.errors import PhloemError
from repro.frontend.lowering import compile_source
from repro.ir.serialize import fingerprint
from repro.ir.verifier import verify_pipeline
from repro.obs import PassProfiler
from repro.obs.passes import ir_counts
from repro.taco import kernels
from repro.workloads import ALL_BENCHMARKS

from common import Workload, median_ms, p99_ms
from spec import PASSES

TACO_KERNELS = (
    kernels.spmv_kernel, kernels.residual_kernel, kernels.mtmul_kernel, kernels.sddmm_kernel,
)
STAGES = (2, 3, 4)
PASS_SETS = (("all", None), ("none", ()))


class Config:
    def __init__(self, name, source, stages, label, passes):
        self.id = "%s.s%d.%s" % (name, stages, label)
        self.source = source
        changes = {} if passes is None else {"passes": passes}
        self.options = CompileOptions(num_stages=stages, **changes)
        self.text = None
        self.pipeline = None


def compile_one(config, rec):
    with rec.span("frontend", "compile_source"):
        function = compile_source(config.source)
    with rec.span("core", "compile_function"):
        pipeline = compile_function(function, options=config.options)
    with rec.span("analysis", "sanitize_pipeline"):
        diags = sanitize_pipeline(pipeline)
    with rec.span("analysis", "perf_advisories"):
        perf_advisories(pipeline)
    with rec.span("core", "emit_pipeline"):
        text = emit_pipeline(pipeline)
    return pipeline, diags, text


class CompileSweep(Workload):
    name = "compile_sweep"

    def __init__(self):
        self.configs = []

    def setup(self, ctx):
        sources = {name: module.SOURCE for name, module in sorted(ALL_BENCHMARKS.items())}
        for make in TACO_KERNELS:
            kernel = make()
            sources["taco_" + kernel.name] = kernel.source
        for name, source in sources.items():
            for stages in STAGES:
                for label, passes in PASS_SETS:
                    config = Config(name, source, stages, label, passes)
                    try:
                        config.pipeline, _, config.text = compile_one(config, ctx.rec)
                    except PhloemError as exc:
                        ctx.info.setdefault("dropped", []).append("%s: %s" % (config.id, exc))
                        continue
                    self.configs.append(config)
        random.Random(ctx.seed).shuffle(self.configs)

    def one_pass(self, ctx):
        for config in self.configs:
            out = ctx.op(config.id, lambda c=config: compile_one(c, ctx.rec))
            if out is None:
                continue
            _, diags, text = out
            if diags.has_errors or text != config.text:
                ctx.fail(config.id, "sanitizer errors" if diags.has_errors
                         else "emitted C differs from the setup compile")

    # -- traced run only ------------------------------------------------------

    def extras(self, ctx, untraced):
        layers = ctx.layers
        layers["compile_p50_ms"] = median_ms(
            [wall for walls in untraced.samples.values() for wall in walls]
        )
        by_name = {}
        for span in ctx.rec.spans:
            if span["op"] is not None:
                by_name.setdefault(span["name"], []).append(span["end"] - span["start"])
        layers["frontend.compile_source_p50_ms"] = median_ms(by_name["compile_source"])
        layers["core.compile_p50_ms"] = median_ms(by_name["compile_function"])
        layers["core.compile_p99_ms"] = p99_ms(by_name["compile_function"])
        layers["core.codegen_p50_ms"] = median_ms(by_name["emit_pipeline"])
        layers["analysis.sanitize_p50_ms"] = median_ms(by_name["sanitize_pipeline"])
        layers["analysis.perfmodel_p50_ms"] = median_ms(by_name["perf_advisories"])

        def clock(fn, *args, **kwargs):
            return ctx.clock(fn, *args, **kwargs)[1]

        layers["taco.lower_p50_ms"] = median_ms(
            [clock(make) for make in TACO_KERNELS for _ in range(5)]
        )
        functions = [compile_source(c.source) for c in self.configs]
        layers["ir.fingerprint_p50_us"] = 1e3 * median_ms(
            [clock(fingerprint, f) for f in functions]
        )
        layers["ir.verify_p50_us"] = 1e3 * median_ms(
            [clock(verify_pipeline, c.pipeline) for c in self.configs]
        )
        counts = [ir_counts(c.pipeline) for c in self.configs]
        layers["ir.stmts_out"] = sum(c["stmts"] for c in counts)
        layers["core.stages_out"] = sum(c["stages"] for c in counts)
        layers["core.queues_out"] = sum(c["queues"] for c in counts)
        layers["core.ras_applied"] = sum(c["ras"] for c in counts)

        plain = profiled = 0.0
        per_pass = dict.fromkeys(PASSES, 0.0)
        for config, function in zip(self.configs, functions):
            plain += clock(compile_function, function, options=config.options)
            profiler = PassProfiler()
            profiled += clock(
                compile_function, function, options=config.options, profiler=profiler
            )
            for record in profiler.records:
                if record.name in per_pass:  # decouple also records its sub-phases
                    per_pass[record.name] += record.wall_s
        for name, wall in per_pass.items():
            layers["core.pass_ms." + name] = wall * 1e3
        layers["obs.passprofiler_overhead_ratio"] = profiled / plain

        # The sweep itself never touches the cache, so the directory is empty:
        # first lookup misses, second hits memory, third (memory dropped) disk.
        default = CompileOptions()
        distinct = list({c.source: f for c, f in zip(self.configs, functions)}.values())
        miss = [clock(cache.cached_compile, f, default) for f in distinct]
        mem = [clock(cache.cached_compile, f, default) for f in distinct]
        cache.reset(memory=True, stats=False)
        disk = [clock(cache.cached_compile, f, default) for f in distinct]
        layers["cache.miss_compile_p50_ms"] = median_ms(miss)
        layers["cache.mem_hit_compile_p50_us"] = 1e3 * median_ms(mem)
        layers["cache.disk_hit_compile_p50_us"] = 1e3 * median_ms(disk)
        ctx.info["cache_probe"] = cache.stats()["pipeline"]
        if statistics.median(mem) >= statistics.median(miss):
            ctx.fail("cache_probe", "memory hit is not faster than a miss")
