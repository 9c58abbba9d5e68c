"""Golden compiler output: every shipped kernel's pipeline, lint and advisories.

Each case either compiles one kernel — the ten shipped benchmarks and the
four Taco kernels, at 2, 3 and 4 stages under every Fig. 6 pass subset — or
builds one hand-written pipeline: each benchmark's ``manual`` variant, its
data-parallel variant at 1, 4 and 16 threads, and every replica of the
Fig. 14 replicated pipelines at 4 replicas. It records the pipeline's
``fingerprint`` (or the error class when the compile raises) and a sha256
of the text ``sanitize_pipeline`` and ``perf_advisories`` report over it,
diagnostics in emission order; a compiled case also records a sha256 of its
``ascii_diagram``, and a hand-built case its ``meta``, which the fingerprint
leaves out. The ``env:`` cases pin the inputs the
hand-built programs run on: ``fingerprint_env`` of every environment
builder (serial, data-parallel at 4 and 16 threads, replicated at 4) on one
small fixed graph or matrix per benchmark. A refactor of the compiler
passes, of either analyzer or of the hand-built variants leaves every entry
of ``golden_compile.json`` unchanged.

A change that moves compiler output on purpose rewrites the data file with
the one command::

    PYTHONPATH=src python tests/core/test_golden_compile.py

and the diff of ``golden_compile.json`` shows which cases moved.
"""

import functools
import hashlib
import json
import os
import sys

import pytest

from repro.analysis.perfmodel import perf_advisories
from repro.analysis.sanitize import sanitize_pipeline
from repro.bench.experiments import FIG6_VARIANTS
from repro.cache import fingerprint_env
from repro.core.compiler import CompileOptions, compile_function
from repro.core.viz import ascii_diagram
from repro.errors import PhloemError
from repro.frontend.lowering import compile_source
from repro.ir.serialize import fingerprint
from repro.taco import kernels
from repro.workloads import ALL_BENCHMARKS, graphs, matrices, replicated

DATA = os.path.join(os.path.dirname(__file__), "golden_compile.json")

STAGES = (2, 3, 4)

#: Thread counts of the pinned data-parallel variants (Fig. 14 runs 16).
DP_THREADS = (1, 4, 16)

#: Replica count of the pinned replicated pipelines.
REPLICAS = 4

#: The Fig. 6 pass subsets (the dataflow and manual rows are not compiles).
PASS_SUBSETS = [passes for _label, passes in FIG6_VARIANTS if isinstance(passes, tuple)]

TACO_KERNELS = {
    "taco_spmv": kernels.spmv_kernel,
    "taco_residual": kernels.residual_kernel,
    "taco_mtmul": kernels.mtmul_kernel,
    "taco_sddmm": kernels.sddmm_kernel,
}


@functools.lru_cache(maxsize=None)
def _function(kernel):
    if kernel in TACO_KERNELS:
        return compile_source(TACO_KERNELS[kernel]().source)
    return ALL_BENCHMARKS[kernel].function()


def _compile(kernel, options):
    return compile_function(_function(kernel), options=options)


def _hand_built():
    """``{case id: thunk returning a hand-built pipeline}``."""
    cases = {}
    for name in sorted(ALL_BENCHMARKS):
        module = ALL_BENCHMARKS[name]
        cases[name + ".manual"] = module.manual_pipeline
        for nthreads in DP_THREADS:
            cases["%s.dp-%d" % (name, nthreads)] = functools.partial(module.data_parallel, nthreads)
    builders = dict(replicated.BUILDERS, bfs_nodist=replicated.bfs_replicated_nodist)
    for app in sorted(builders):
        for rid in range(REPLICAS):
            cases["%s.repl-%d" % (app, rid)] = functools.partial(builders[app], rid, REPLICAS)
    return cases


def _cases():
    """``{case id: thunk returning a pipeline}``, in a stable order."""
    cases = {}
    for kernel in sorted(ALL_BENCHMARKS) + sorted(TACO_KERNELS):
        for stages in STAGES:
            for passes in PASS_SUBSETS:
                options = CompileOptions(num_stages=stages, passes=passes)
                case = "%s.s%d.%s" % (kernel, stages, "+".join(passes) or "none")
                cases[case] = functools.partial(_compile, kernel, options)
    cases.update(HAND_BUILT)
    return cases


HAND_BUILT = _hand_built()
CASES = _cases()


@functools.lru_cache(maxsize=None)
def _input(name):
    """The small fixed input the ``env:`` cases build environments from
    (50 vertices, so 16 threads leave some fringe segments empty)."""
    if name in ("spmm", "spmv"):
        return matrices.random_matrix(24, 3, seed=5)
    return graphs.power_law(50, 3, seed=5)


def _env_cases():
    """``{case id: thunk returning a list of (arrays, scalars)}``."""
    cases = {}
    for name in sorted(ALL_BENCHMARKS):
        module = ALL_BENCHMARKS[name]
        cases["env:%s.serial" % name] = lambda m=module: [m.make_env(_input(m.NAME))]
        for nthreads in DP_THREADS[1:]:
            cases["env:%s.dp-%d" % (name, nthreads)] = lambda m=module, t=nthreads: [
                m.make_env_dp(_input(m.NAME), t)
            ]
    for app in sorted(replicated.BUILDERS):
        cases["env:%s.repl-%d" % (app, REPLICAS)] = lambda a=app: replicated.make_envs(
            a, _input(a), REPLICAS
        )
    return cases


ENV_CASES = _env_cases()


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _render(diags):
    return "\n".join(d.render() for d in diags.diagnostics)


def observe(case):
    """What the golden file records for one case."""
    try:
        pipeline = CASES[case]()
    except PhloemError as exc:
        return {"pipeline": "error:" + type(exc).__name__}
    observed = {
        "pipeline": fingerprint(pipeline),
        "sanitize": _sha(_render(sanitize_pipeline(pipeline))),
        "perf": _sha(_render(perf_advisories(pipeline))),
    }
    if case in HAND_BUILT:
        observed["meta"] = pipeline.meta
    else:
        observed["diagram"] = _sha(ascii_diagram(pipeline))
    return observed


def observe_env(case):
    """What the golden file records for one ``env:`` case."""
    return {"env": [fingerprint_env(arrays, scalars) for arrays, scalars in ENV_CASES[case]()]}


@functools.lru_cache(maxsize=None)
def _golden():
    with open(DATA) as handle:
        return json.load(handle)


def test_golden_file_covers_exactly_the_cases():
    assert sorted(_golden()) == sorted(list(CASES) + list(ENV_CASES))


@pytest.mark.parametrize("case", list(CASES))
def test_compiler_output_matches_golden(case):
    assert observe(case) == _golden()[case]


@pytest.mark.parametrize("case", list(ENV_CASES))
def test_inputs_match_golden(case):
    assert observe_env(case) == _golden()[case]


if __name__ == "__main__":
    golden = {case: observe(case) for case in CASES}
    golden.update((case, observe_env(case)) for case in ENV_CASES)
    with open(DATA, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    sys.stdout.write("wrote %d cases to %s\n" % (len(golden), DATA))
