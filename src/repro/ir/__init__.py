"""Phloem intermediate representation.

A fine-grain, region-tree IR with first-class queue operations and control
values (paper Sec. V: unlike conventional IRs, it "adds support for queue
operations and conveying control flow changes").
"""

from .. import _lazy_exports

#: Re-exported name -> the submodule that defines it, resolved on first use
#: (like :mod:`repro`'s own): unpickling a memoized pipeline needs the
#: statement and program classes, not the builder, printer, verifier or
#: serializer.
_EXPORTS = {
    "IRBuilder": "builder",
    "ALL_OPS": "ops",
    "BINARY_OPS": "ops",
    "COMPARE_OPS": "ops",
    "TERNARY_OPS": "ops",
    "UNARY_OPS": "ops",
    "arity": "ops",
    "evaluate": "ops",
    "RA_INDIRECT": "program",
    "RA_SCAN": "program",
    "ArrayDecl": "program",
    "Function": "program",
    "Intrinsic": "program",
    "PipelineProgram": "program",
    "QueueSpec": "program",
    "RASpec": "program",
    "StageProgram": "program",
    "serial_pipeline": "program",
    "format_body": "printer",
    "format_function": "printer",
    "format_pipeline": "printer",
    "format_stage": "printer",
    "format_stmt": "printer",
    "canonical_function": "serialize",
    "canonical_pipeline": "serialize",
    "fingerprint": "serialize",
    "Assign": "stmts",
    "AtomicRMW": "stmts",
    "Barrier": "stmts",
    "Break": "stmts",
    "Call": "stmts",
    "Comment": "stmts",
    "Continue": "stmts",
    "Deq": "stmts",
    "Enq": "stmts",
    "EnqCtrl": "stmts",
    "EnqCtrlDist": "stmts",
    "EnqDist": "stmts",
    "For": "stmts",
    "If": "stmts",
    "IsControl": "stmts",
    "Load": "stmts",
    "Loop": "stmts",
    "Peek": "stmts",
    "Prefetch": "stmts",
    "ReadShared": "stmts",
    "Store": "stmts",
    "WriteShared": "stmts",
    "count_stmts": "stmts",
    "walk": "stmts",
    "walk_with_depth": "stmts",
    "Ctrl": "values",
    "array_name": "values",
    "is_array_symbol": "values",
    "is_const": "values",
    "is_control": "values",
    "is_reg": "values",
    "verify_function": "verifier",
    "verify_pipeline": "verifier",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
