"""The Phloem compiler: automatic decoupling into fine-grain pipelines."""

from .accelerate import apply_reference_accelerators
from .autotune import SearchPoint, gmean, search_pipelines, speedup_distribution
from .codegen import emit_pipeline, emit_stage
from .compiler import ALL_PASSES, CompileOptions, compile_c, compile_function, pipeline_summary
from .ctrl import apply_control_handlers, apply_control_values, apply_interstage_dce
from .decouple import decouple_function
from .recompute import apply_recompute
from .replicate import replicate_pipeline
from .viz import ascii_diagram

__all__ = [
    "apply_reference_accelerators",
    "SearchPoint",
    "gmean",
    "search_pipelines",
    "speedup_distribution",
    "emit_pipeline",
    "emit_stage",
    "ALL_PASSES",
    "CompileOptions",
    "compile_c",
    "compile_function",
    "pipeline_summary",
    "apply_control_handlers",
    "apply_control_values",
    "apply_interstage_dce",
    "decouple_function",
    "apply_recompute",
    "replicate_pipeline",
    "ascii_diagram",
]
