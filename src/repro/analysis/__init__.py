"""Static analyses backing the Phloem compiler passes."""

from .. import _lazy_exports

#: Re-exported name -> the submodule that defines it, resolved on first use
#: (like :mod:`repro`'s own): the compiler imports the analyses it runs,
#: and a memo hit none.
_EXPORTS = {
    "INDIRECT": "access",
    "OTHER": "access",
    "SEQUENTIAL": "access",
    "AccessInfo": "access",
    "affine_root": "access",
    "classify_loads": "access",
    "AliasInfo": "alias",
    "access_class": "alias",
    "DecouplePoint": "costmodel",
    "rank_decouple_points": "costmodel",
    "DefUse": "defs",
    "pure_regs": "defs",
    "LoopNestInfo": "loops",
    "estimated_trip_weight": "loops",
    "find_phase_loop": "loops",
    "EdgeEstimate": "perfmodel",
    "PerfReport": "perfmodel",
    "StageEstimate": "perfmodel",
    "analyze_pipeline": "perfmodel",
    "measured_stage_busy": "perfmodel",
    "perf_advisories": "perfmodel",
    "static_score": "perfmodel",
    "validate_prediction": "perfmodel",
    "classify_cross_stage": "sanitize",
    "lint_source": "sanitize",
    "sanitize_function": "sanitize",
    "sanitize_pipeline": "sanitize",
    "backward_slice": "slicing",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
