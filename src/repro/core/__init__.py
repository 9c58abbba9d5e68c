"""The Phloem compiler: automatic decoupling into fine-grain pipelines."""

from .. import _lazy_exports

#: Re-exported name -> the submodule that defines it, resolved on first use
#: (like :mod:`repro`'s own): a warm ``repro emit`` builds its options and
#: summarizes the memoized pipeline with :mod:`~repro.core.options` alone,
#: and must not load the passes.
_EXPORTS = {
    "apply_reference_accelerators": "accelerate",
    "SearchPoint": "autotune",
    "gmean": "autotune",
    "search_pipelines": "autotune",
    "speedup_distribution": "autotune",
    "emit_pipeline": "codegen",
    "emit_stage": "codegen",
    "ALL_PASSES": "options",
    "CompileOptions": "options",
    "compile_c": "compiler",
    "compile_function": "compiler",
    "pipeline_summary": "options",
    "apply_control_handlers": "ctrl",
    "apply_control_values": "ctrl",
    "apply_interstage_dce": "ctrl",
    "decouple_function": "decouple",
    "apply_recompute": "recompute",
    "replicate_pipeline": "replicate",
    "ascii_diagram": "viz",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
