"""Reproduction of *Phloem: Automatic Acceleration of Irregular Applications
with Fine-Grain Pipeline Parallelism* (HPCA 2023).

Top-level convenience re-exports; see the subpackages for the full API:

* :mod:`repro.frontend` -- mini-C -> Phloem IR
* :mod:`repro.core` -- the Phloem compiler (passes, search, replication)
* :mod:`repro.pipette` -- the simulated hardware substrate
* :mod:`repro.runtime` -- serial/pipelined/data-parallel/replicated executors
* :mod:`repro.taco` -- mini tensor-algebra compiler emitting mini-C
* :mod:`repro.workloads` -- benchmarks and synthetic inputs
* :mod:`repro.bench` -- the per-figure evaluation harness
* :mod:`repro.cache` -- compiled-pipeline / serial-baseline memo layers
"""

__version__ = "1.2.0"

import importlib

#: Re-exported name -> the subpackage that defines it. Resolved on first use
#: (PEP 562), so ``import repro`` — which every ``python -m repro <verb>``
#: starts with — loads none of them; a verb imports the layers it runs.
_EXPORTS = {
    "ALL_PASSES": "core",
    "CompileOptions": "core",
    "compile_c": "core",
    "compile_function": "core",
    "replicate_pipeline": "core",
    "compile_source": "frontend",
    "PIPETTE_1CORE": "pipette",
    "PIPETTE_4CORE": "pipette",
    "SCALED_1CORE": "pipette",
    "SCALED_4CORE": "pipette",
    "MachineConfig": "pipette",
    "describe_run": "runtime",
    "run_pipeline": "runtime",
    "run_replicated": "runtime",
    "run_serial": "runtime",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    subpackage = _EXPORTS.get(name)
    if subpackage is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + subpackage, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
