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
from repro.pipette.config import SCALED_1CORE
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
