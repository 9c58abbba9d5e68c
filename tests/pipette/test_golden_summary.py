"""Golden simulation counters: what a run counts, pinned per workload.

Each case runs one pipeline on one small fixed input under the ambient
engine (``REPRO_ENGINE``, else the default) and records the run's
``cycles`` plus a sha256 of ``json.dumps(stats.summary(), sort_keys=True)``
and of ``result.energy().as_dict()``. The cases are the compiled 4-stage
pipeline of each of the ten benchmarks (every pass on, so INDIRECT and
SCAN reference accelerators appear), the same bfs pipeline spread over two
cores, each benchmark's ``manual`` and ``dp-4`` variants, the four Taco
kernels, and the Fig. 14 replicated bfs pipelines (hand-built, and the
compiler's replicate+distribute transform) at 2 replicas, whose
``enq_dist``/``enq_ctrl_dist`` cross replicas. A refactor of how the
simulator counts events leaves every entry of ``golden_summary.json``
unchanged on every engine.

A change that moves simulated counts on purpose rewrites the data file
with the one command::

    PYTHONPATH=src python tests/pipette/test_golden_summary.py

and the diff of ``golden_summary.json`` shows which cases moved.
"""

import dataclasses
import functools
import hashlib
import json
import os
import sys

import pytest

from repro.core.compiler import CompileOptions, compile_c, compile_function
from repro.core.replicate import replicate_pipeline
from repro.pipette.config import CacheConfig, MachineConfig
from repro.runtime import run_pipeline, run_replicated
from repro.taco import (
    ALPHA,
    BETA,
    dense_input,
    mtmul_kernel,
    residual_kernel,
    sddmm_kernel,
    spmv_kernel,
)
from repro.workloads import ALL_BENCHMARKS, graphs, matrices, replicated

DATA = os.path.join(os.path.dirname(__file__), "golden_summary.json")

#: Small caches, so L2, L3 and DRAM all see traffic on the small inputs.
CONFIG = MachineConfig(
    l1=CacheConfig(4 * 1024, 4, 4),
    l2=CacheConfig(16 * 1024, 8, 12),
    l3_per_core=CacheConfig(64 * 1024, 16, 40),
)
CONFIG_2CORE = dataclasses.replace(CONFIG, cores=2)

REPLICAS = 2


@functools.lru_cache(maxsize=None)
def _input(name):
    """The small fixed input of one benchmark."""
    if name in ("spmm", "spmv"):
        return matrices.random_matrix(24, 3, seed=5)
    return graphs.power_law(50, 3, seed=5)


def _compiled(name):
    module = ALL_BENCHMARKS[name]
    return compile_function(module.function(), options=CompileOptions(num_stages=4))


def _run_compiled(name, stage_cores=None, config=CONFIG):
    arrays, scalars = ALL_BENCHMARKS[name].make_env(_input(name))
    return run_pipeline(_compiled(name), arrays, scalars, config=config, stage_cores=stage_cores)


def _run_manual(name):
    module = ALL_BENCHMARKS[name]
    arrays, scalars = module.make_env(_input(name))
    return run_pipeline(module.manual_pipeline(), arrays, scalars, config=CONFIG)


def _run_dp(name, nthreads=4):
    module = ALL_BENCHMARKS[name]
    arrays, scalars = module.make_env_dp(_input(name), nthreads)
    return run_pipeline(module.data_parallel(nthreads), arrays, scalars, config=CONFIG)


def _taco_bindings():
    matrix = matrices.random_matrix(24, 3, seed=21)
    small = matrices.random_matrix(12, 3, seed=22)
    kdim = 4
    return {
        "taco_spmv": (spmv_kernel, {"A": matrix, "x": dense_input(matrix.ncols, 1)}),
        "taco_residual": (
            residual_kernel,
            {
                "A": matrix,
                "x": dense_input(matrix.ncols, 2),
                "b": dense_input(matrix.nrows, 3),
            },
        ),
        "taco_mtmul": (
            mtmul_kernel,
            {
                "A": matrix,
                "x": dense_input(matrix.nrows, 4),
                "z": dense_input(matrix.ncols, 5),
                "alpha": ALPHA,
                "beta": BETA,
            },
        ),
        "taco_sddmm": (
            sddmm_kernel,
            {
                "B": small,
                "C": (dense_input(small.nrows * kdim, 6), kdim),
                "D": (dense_input(kdim * small.ncols, 7), small.ncols),
            },
        ),
    }


def _run_taco(name):
    make_kernel, tensors = _taco_bindings()[name]
    kernel = make_kernel()
    arrays, scalars = kernel.bind(tensors)
    pipeline = compile_c(kernel.source, options=CompileOptions(num_stages=4))
    return run_pipeline(pipeline, arrays, scalars, config=CONFIG)


def _run_replicated(builder):
    graph = _input("bfs")
    envs = replicated.make_envs("bfs", graph, REPLICAS)
    pipelines = [builder(rid, REPLICAS) for rid in range(REPLICAS)]
    return run_replicated(
        [(pipelines[r], envs[r][0], envs[r][1], r) for r in range(REPLICAS)], CONFIG_2CORE
    )


def _phloem_replicas(rid, replicas):
    return replicate_pipeline(_compiled("bfs"), replicas)[rid]


def _cases():
    """``{case id: thunk returning a RunResult}``, in a stable order."""
    cases = {}
    for name in sorted(ALL_BENCHMARKS):
        cases[name + ".s4"] = functools.partial(_run_compiled, name)
        cases[name + ".manual"] = functools.partial(_run_manual, name)
        cases[name + ".dp-4"] = functools.partial(_run_dp, name)
    cases["bfs.s4.2core"] = functools.partial(
        _run_compiled, "bfs", stage_cores=[0, 0, 1, 1], config=CONFIG_2CORE
    )
    for name in sorted(_taco_bindings()):
        cases[name] = functools.partial(_run_taco, name)
    cases["bfs.repl-%d" % REPLICAS] = functools.partial(
        _run_replicated, replicated.BUILDERS["bfs"]
    )
    cases["bfs.phloem-repl-%d" % REPLICAS] = functools.partial(_run_replicated, _phloem_replicas)
    return cases


CASES = _cases()


def _sha(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


def observe(case):
    """What the golden file records for one case."""
    result = CASES[case]()
    return {
        "cycles": result.cycles,
        "summary": _sha(result.stats.summary()),
        "energy": _sha(result.energy().as_dict()),
    }


@functools.lru_cache(maxsize=None)
def _golden():
    with open(DATA) as handle:
        return json.load(handle)


def test_golden_file_covers_exactly_the_cases():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_run_counters_match_golden(case):
    assert observe(case) == _golden()[case]


if __name__ == "__main__":
    golden = {case: observe(case) for case in CASES}
    with open(DATA, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    sys.stdout.write("wrote %d cases to %s\n" % (len(golden), DATA))
