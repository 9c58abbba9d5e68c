"""autotune: profile-guided searches through ``api.handle``, cold cache each time.

Hundreds of candidate compiles plus many short training simulations, so
compiler + perfmodel + per-``Machine`` engine set-up dominate instead of
steady-state simulation. The training inputs are the repo's own fixed sets
(the public verb takes no seed); the seed only orders the searches. The
traced run replays each search through ``core.search_pipelines`` with a
benchmark-side evaluator so that simulation nests as child spans.
"""

import math
import os
import random

from repro import api, cache
from repro.bench.harness import adapter_for
from repro.core import gmean, search_pipelines
from repro.obs import SearchRecorder
from repro.pipette import SCALED_1CORE
from repro.runtime.executor import run_pipeline, run_serial
from repro.workloads.datasets import TRAIN_GRAPHS

import spans
from common import Workload, summarize

#: (bench, prune_static). The harness's own search shape is replayed below.
SEARCHES = (("bfs", False), ("bfs", True), ("cc", True))
SEARCH_SHAPE = {"max_stages": 4, "top_k": 5, "limit": 40}


def _search_id(bench, prune):
    return "%s.%s" % (bench, "prune" if prune else "exhaustive")


class Autotune(Workload):
    name = "autotune"

    def __init__(self):
        self.searches = []
        self.best = {}
        self.cache_dirs = 0

    def setup(self, ctx):
        self.searches = list(SEARCHES)
        random.Random(ctx.seed).shuffle(self.searches)
        for item in TRAIN_GRAPHS:
            item.build()

    def _fresh_cache(self, ctx):
        self.cache_dirs += 1
        os.environ["REPRO_CACHE_DIR"] = os.path.join(ctx.work, "cache%d" % self.cache_dirs)
        cache.reset(memory=True, stats=False)

    def one_pass(self, ctx):
        for bench, prune in self.searches:
            op_id = _search_id(bench, prune)
            self._fresh_cache(ctx)
            request = api.SearchRequest(bench=bench, prune_static=prune)

            def search(request=request):
                with ctx.rec.span("api", "handle.search"):
                    return api.handle(request)

            response = ctx.op(op_id, search, precise=True)
            if response is None:
                continue
            problems = []
            if response.exit_code != 0 or response.best is None:
                problems.append("exit %d, best %r" % (response.exit_code, response.best))
            elif self.best.setdefault(op_id, response.best) != response.best:
                problems.append("winner changed between passes")
            if response.cache["search"] != {"hits": 0, "misses": 1}:
                problems.append("search cache was not cold: %r" % (response.cache,))
            if problems:
                ctx.fail(op_id, "; ".join(problems))

    # -- traced run only ------------------------------------------------------

    #: Shares come from the replay: the timed operation is one opaque api span.
    share_ops_prefix = "replay."

    def extras(self, ctx, untraced):
        layers = ctx.layers
        layers["phloem_speedup_gmean"] = gmean([b["speedup"] for b in self.best.values()])
        candidates = sims = 0
        first = len(ctx.rec.spans)
        ctx.rec.enabled = True
        try:
            for bench, prune in self.searches:
                found, evaluated = self._replay(ctx, bench, prune)
                candidates += found
                sims += evaluated
        finally:
            ctx.rec.enabled = False
        replay = ctx.rec.spans[first:]
        own = spans.self_times(replay)
        total = sum(s["end"] - s["start"] for s in replay if s["parent"] is None)
        core = sum(own[s["id"]] for s in replay if s["layer"] == "core")
        layers["bench.search_candidates"] = candidates
        layers["bench.search_sims"] = sims
        layers["bench.search_compile_share"] = core / total
        layers["bench.search_overhead_ratio"] = summarize(untraced.samples)["wall_s"] / total
        for layer, counts in cache.stats().items():
            lookups = counts["hits"] + counts["misses"]
            layers["cache.hit_ratio." + layer] = counts["hits"] / lookups if lookups else 0.0

    def _replay(self, ctx, bench, prune):
        adapter = adapter_for(bench)
        function = adapter.function()
        envs = [adapter.env(item.build()) for item in TRAIN_GRAPHS]
        evaluated = []
        op_id = "replay." + _search_id(bench, prune)
        with ctx.rec.span("benchmark", "replay", op=op_id):
            baselines = []
            for arrays, scalars in envs:
                with ctx.rec.span("pipette", "run_serial"):
                    serial = run_serial(function, arrays, scalars, config=SCALED_1CORE)
                baselines.append(serial.cycles)

            def evaluate(pipeline):
                speeds = []
                for (arrays, scalars), base in zip(envs, baselines):
                    with ctx.rec.span("pipette", "run_pipeline"):
                        result = run_pipeline(pipeline, arrays, scalars, config=SCALED_1CORE)
                    speeds.append(base / result.cycles)
                evaluated.append(pipeline)
                return gmean(speeds)

            recorder = SearchRecorder()
            with ctx.rec.span("core", "search_pipelines"):
                best, _ = search_pipelines(
                    function, evaluate, recorder=recorder, prune_static=prune or None,
                    **SEARCH_SHAPE
                )
        ctx.attempted += 1
        expected = self.best[_search_id(bench, prune)]
        if best is None or list(best.indices) != expected["indices"] or not math.isclose(
            best.speedup, expected["speedup"], rel_tol=1e-12
        ):
            ctx.fail(op_id, "replayed winner %r differs from api.handle's %r" % (best, expected))
        return len(recorder.candidates), len(evaluated) * len(envs)
