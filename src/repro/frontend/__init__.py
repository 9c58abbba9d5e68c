"""Mini-C frontend: lexer, parser, pragmas, and lowering to Phloem IR."""

from .. import _lazy_exports

#: Re-exported name -> the submodule that defines it, resolved on first use
#: (like :mod:`repro`'s own): a memo hit parses nothing.
_EXPORTS = {
    "inline_unit": "inline",
    "Token": "lexer",
    "tokenize": "lexer",
    "BUILTIN_CONSTANTS": "lowering",
    "compile_source": "lowering",
    "lower_function": "lowering",
    "parse": "parser",
    "DECOUPLE_MARK": "pragmas",
    "DISTRIBUTE_MARK": "pragmas",
    "collect_function_pragmas": "pragmas",
    "parse_pragma": "pragmas",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
