"""Reference ≡ batch on the machine shapes that make stalls the common case.

The batch engine's generated code keeps two facts alive between simulated
micro-ops instead of re-deriving them (``batchpath.py``, "the timing
invariants"): the issue-ledger cursor ``lc == ceil(cur)``, re-established by
``resync`` wherever the clock moves by another route, and one ROB guard per
straight-line run. On the evaluation machine (6-wide, 224-entry ROB, 10
MSHRs) the sites that owe a ``resync`` almost never run. Narrow issue, a ROB
shorter than a run, a single MSHR and non-integral latencies make them the
hot path: a stall in the middle of a guarded run, a run cut at ``rob_size``,
a ``cur`` that is not a whole cycle when the next slot is probed.

Every shape must leave ``cycles`` and the whole ``SimStats.summary()``
identical to the reference interpreter's.
"""

import itertools
from dataclasses import replace

import pytest

from repro.bench.harness import adapter_for
from repro.core import CompileOptions, compile_function
from repro.pipette import ENGINES
from repro.pipette.config import SCALED_1CORE, CacheConfig
from repro.runtime import run_pipeline
from repro.workloads.graphs import power_law
from repro.workloads.matrices import random_matrix

DP_THREADS = 4

#: bfs and cc: control handlers, pointer-register frontiers, prefetches,
#: shared cells and barriers, atomics in the dp variants; spmv: a four-stage
#: gather with nothing but queues between its loads. (The cheapest three to
#: compile: every shape is new generated text for every stage.)
KERNELS = ("bfs", "cc", "spmv")

INTEGRAL = {"mul": 3, "div": 12}
FRACTIONAL = {"mul": 2.5, "add": 1.25}

SHAPES = list(
    itertools.product((1, 2, 6), (2, 5, 224), (1, 10), (INTEGRAL, FRACTIONAL))
)


def _data(kernel):
    if kernel == "spmv":
        return random_matrix(40, 3, seed=3)
    return power_law(40, 3, seed=3)


def _variant(kernel, variant):
    """(pipeline, fresh-environment factory) for one kernel variant."""
    adapter = adapter_for(kernel)
    data = _data(kernel)
    if variant == "dp":
        return adapter.dp_pipeline(DP_THREADS), lambda: adapter.dp_env(data, DP_THREADS)
    pipeline = compile_function(adapter.function(), options=CompileOptions())
    return pipeline, lambda: adapter.env(data)


def _observe(pipeline, env, config, engine):
    arrays, scalars = env()
    result = run_pipeline(pipeline, arrays, scalars, config=config, engine=engine)
    assert result.stage_fallbacks == {}
    return result.cycles, result.stats.summary()


@pytest.mark.parametrize("variant", ("static", "dp"))
@pytest.mark.parametrize("kernel", KERNELS)
def test_batch_equals_reference_on_stall_heavy_shapes(kernel, variant):
    pipeline, env = _variant(kernel, variant)
    diverged = []
    for width, rob, mshrs, latencies in SHAPES:
        config = replace(
            SCALED_1CORE, issue_width=width, rob_size=rob, mshrs=mshrs, op_latencies=latencies
        )
        oracle = _observe(pipeline, env, config, "reference")
        if _observe(pipeline, env, config, "batch") != oracle:
            diverged.append((width, rob, mshrs, latencies))
    assert diverged == []


def test_fractional_latencies_are_not_truncated():
    """The generated source used to bake latencies with ``%d``: ``mul`` at
    2.5 cycles simulated as 2 on the batch engine only (4826 cycles against
    the other engines' 4827 on this input)."""
    pipeline, env = _variant("cc", "static")
    config = replace(SCALED_1CORE, op_latencies=FRACTIONAL)
    seen = {engine: _observe(pipeline, env, config, engine) for engine in ENGINES}
    assert seen["batch"] == seen["fastpath"] == seen["reference"]
    cycles, summary = seen["reference"]
    assert cycles == 4827.0
    # The input does exercise a fractional clock, or the test pins nothing.
    assert summary["branch_stall"] != int(summary["branch_stall"])


# ---------------------------------------------------------------------------
# One timing primitive at a time


def _slower_cache(level, by):
    return lambda c: replace(
        c, **{level: replace(getattr(c, level), latency=getattr(c, level).latency + by)}
    )


#: Each perturbation slows exactly one primitive of the timing model.
PRIMITIVES = {
    "queue_latency": lambda c: replace(c, queue_latency=c.queue_latency + 3),
    "xcore_queue_latency": lambda c: replace(c, xcore_queue_latency=c.xcore_queue_latency + 8),
    "mispredict_penalty": lambda c: replace(c, mispredict_penalty=c.mispredict_penalty + 6),
    "dram_latency": lambda c: replace(c, dram_latency=c.dram_latency + 40),
    "l1.latency": _slower_cache("l1", 2),
    "l2.latency": _slower_cache("l2", 6),
    "l3_per_core.latency": _slower_cache("l3_per_core", 20),
    "ra_mshrs": lambda c: replace(c, ra_mshrs=1),
    "op_latencies[add]": lambda c: replace(c, op_latencies=dict(c.op_latencies, add=3)),
}

#: Two cores with the pipeline split across them, so same-core and
#: cross-core queues both carry traffic, and an L1 small enough that the
#: 40-vertex inputs hit in L2.
PRIMITIVE_BASE = replace(SCALED_1CORE, cores=2, l1=CacheConfig(1024, 2, 4))

#: Where a slower primitive does *not* move the wall clock: spmv's loads all
#: issue from its reference accelerators, sixteen in flight, and its adds
#: overlap them — decoupling hides exactly these latencies.
HIDDEN = {("spmv", "l1.latency"), ("spmv", "l2.latency"), ("spmv", "op_latencies[add]")}


@pytest.mark.parametrize("kernel", ("bfs", "spmv"))  # one graph, one sparse kernel
def test_one_primitive_at_a_time(kernel):
    """Slowing one primitive moves reference and batch identically, moves the
    cycle count wherever the primitive is on the critical path, and never
    moves the output arrays (functional results are timing-invariant)."""
    adapter = adapter_for(kernel)
    data = _data(kernel)
    pipeline = compile_function(adapter.function(), options=CompileOptions())
    half = len(pipeline.stages) // 2
    stage_cores = [0] * half + [1] * (len(pipeline.stages) - half)

    def observe(config, engine):
        arrays, scalars = adapter.env(data)
        result = run_pipeline(
            pipeline, arrays, scalars, config=config, engine=engine, stage_cores=stage_cores
        )
        assert result.stage_fallbacks == {}
        return result.cycles, result.stats.summary(), result.arrays

    cycles, _, arrays = observe(PRIMITIVE_BASE, "reference")
    assert adapter.check(arrays, data)
    for name, slower in PRIMITIVES.items():
        config = slower(PRIMITIVE_BASE)
        oracle = observe(config, "reference")
        assert observe(config, "batch") == oracle, name
        assert oracle[2] == arrays, name
        assert (oracle[0] != cycles) == ((kernel, name) not in HIDDEN), (name, oracle[0], cycles)
