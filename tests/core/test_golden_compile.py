"""Golden compiler output: every shipped kernel's pipeline, lint and advisories.

Each case either compiles one kernel — the ten shipped benchmarks and the
four Taco kernels, at 2, 3 and 4 stages under every Fig. 6 pass subset — or
builds one hand-written pipeline (each benchmark's ``manual`` and ``dp-4``
variants). It records the pipeline's ``fingerprint`` (or the error class
when the compile raises) and a sha256 of the text ``sanitize_pipeline`` and
``perf_advisories`` report over it, diagnostics in emission order. A
refactor of the compiler passes or of either analyzer leaves every entry of
``golden_compile.json`` unchanged.

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
from repro.core.compiler import CompileOptions, compile_function
from repro.errors import PhloemError
from repro.frontend.lowering import compile_source
from repro.ir.serialize import fingerprint
from repro.taco import kernels
from repro.workloads import ALL_BENCHMARKS

DATA = os.path.join(os.path.dirname(__file__), "golden_compile.json")

STAGES = (2, 3, 4)

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


def _cases():
    """``{case id: thunk returning a pipeline}``, in a stable order."""
    cases = {}
    for kernel in sorted(ALL_BENCHMARKS) + sorted(TACO_KERNELS):
        for stages in STAGES:
            for passes in PASS_SUBSETS:
                options = CompileOptions(num_stages=stages, passes=passes)
                case = "%s.s%d.%s" % (kernel, stages, "+".join(passes) or "none")
                cases[case] = functools.partial(_compile, kernel, options)
    for name in sorted(ALL_BENCHMARKS):
        module = ALL_BENCHMARKS[name]
        cases[name + ".manual"] = module.manual_pipeline
        cases[name + ".dp-4"] = functools.partial(module.data_parallel, 4)
    return cases


CASES = _cases()


def _sha(diags):
    text = "\n".join(d.render() for d in diags.diagnostics)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def observe(case):
    """What the golden file records for one case."""
    try:
        pipeline = CASES[case]()
    except PhloemError as exc:
        return {"pipeline": "error:" + type(exc).__name__}
    return {
        "pipeline": fingerprint(pipeline),
        "sanitize": _sha(sanitize_pipeline(pipeline)),
        "perf": _sha(perf_advisories(pipeline)),
    }


@functools.lru_cache(maxsize=None)
def _golden():
    with open(DATA) as handle:
        return json.load(handle)


def test_golden_file_covers_exactly_the_cases():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_compiler_output_matches_golden(case):
    assert observe(case) == _golden()[case]


if __name__ == "__main__":
    golden = {case: observe(case) for case in CASES}
    with open(DATA, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    sys.stdout.write("wrote %d cases to %s\n" % (len(golden), DATA))
