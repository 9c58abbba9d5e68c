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
* :mod:`repro.cache` -- compiled-pipeline / simulation / search memo layers
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


def _lazy_exports(namespace, exports):
    """The PEP 562 ``(__getattr__, __dir__)`` of a package that re-exports
    ``exports`` (name -> defining submodule): a name is imported on first
    use and then stored in ``namespace``, the package's ``globals()``."""
    package = namespace["__name__"]

    def __getattr__(name):
        submodule = exports.get(name)
        if submodule is None:
            raise AttributeError("module %r has no attribute %r" % (package, name))
        value = getattr(importlib.import_module("." + submodule, package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
