"""Generated stage source -> ready ``__batch_stage`` function.

The batch-advance engine (:mod:`repro.pipette.batchpath`) describes each
stage as one generated generator function. Instantiating that description
used to cost a ``compile()`` per process and an ``exec`` per machine; this
module makes both a lookup:

* **in process** — source digest -> function. The function takes every
  run-specific object through its one argument, so one function serves
  every run of every machine in the process;
* **on disk** — ``marshal``\\ ed code objects under
  ``<cache_dir>/stagecode/<sha256>.<cache_tag>``, with the conventions of
  :mod:`repro.cache` (``REPRO_CACHE_DIR``, ``REPRO_NO_CACHE``, version
  salt, write-then-rename; an unreadable, truncated or skewed entry is a
  miss and is overwritten). Fork-pool workers, daemon workers and later
  CLI runs all start warm.

A miss compiles **without the parser's memory spike**: CPython's PEG
parser holds ~400 bytes per token until it returns — 4-12 MB for one
50-150 KB stage — yet the source is a few hundred distinct lines repeated
at many sites. :func:`_assemble` parses each distinct line once and builds
the module tree by indentation, sharing the parsed nodes between sites;
``compile()`` of that tree never sees the text. The price: line numbers in
the code object index the stage's table of distinct lines, not its source.
Tracebacks into ``<batchpath:...>`` frames carried no source text either
way; ``_CompiledStage.source`` regenerates the text for reading.
"""

import ast
import hashlib
import marshal
import os
import sys
import types

from ..cachedir import cache_dir, write_atomic
from ..errors import SimulationError
from ..ir.values import Ctrl
from .sched import BLOCKED

#: Ready functions keyed by source digest.
_STAGE_FNS = {}
_STAGE_FNS_MAX = 512

#: Sub-directory of :func:`repro.cachedir.cache_dir` holding the entries.
_STORE_LAYER = "stagecode"

#: First bytes of every store entry: marshal's format follows the exact
#: interpreter build, not the cache tag, so an entry written by another
#: build under the same tag reads as a miss instead of as garbage.
_STORE_MAGIC = b"repro.stagecode:%x\n" % sys.hexversion

#: Location stamped on the compound nodes built here (see module docstring).
_LOC = {"lineno": 1, "col_offset": 0, "end_lineno": 1, "end_col_offset": 0}


def _leaf(text):
    """The simple statement whose parse supplies the expressions of source
    line ``text``, or None for a header that carries none.

    Headers are rewritten as simple statements (``if X:`` -> ``X``,
    ``for T in I:`` -> ``T = I``), so one parser run over the distinct
    leaves, one per line, yields every node a stage needs.
    """
    if not text.endswith(":"):
        return text
    word, _, rest = text[:-1].partition(" ")
    if word in ("if", "elif", "while", "except"):
        return rest
    if word == "for":
        target, _, iterable = rest.partition(" in ")
        return "%s = %s" % (target, iterable)
    return None  # else / try / def


def _chain_tail(node):
    """The ``if`` that a following ``elif``/``else`` at its depth binds to."""
    while node.orelse:
        (node,) = node.orelse
    return node


def _assemble(source):
    """``ast.Module`` for line-structured generated source.

    Accepts exactly what the stage compiler emits: one statement per line,
    block structure by indentation, compound headers among ``if`` /
    ``elif`` / ``else`` / ``while`` / ``for`` / ``try`` / ``except T`` /
    ``def``, no comments. Anything else fails loudly (``KeyError`` /
    ``SyntaxError``), never silently.
    """
    lines = []  # (indentation, text, leaf text)
    leaves = {}
    for raw in source.split("\n"):
        text = raw.lstrip(" ")
        if text:
            key = _leaf(text)
            lines.append((len(raw) - len(text), text, key))
            if key is not None:
                leaves[key] = None
    parsed = ast.parse("\n".join(leaves)).body
    if len(parsed) != len(leaves):
        raise SyntaxError("generated stage source is not one statement per line")
    for key, node in zip(leaves, parsed):
        leaves[key] = node

    body, end = _block(lines, leaves, 0, 0)
    if end != len(lines):
        raise SyntaxError("generated stage source dedents below its first line")
    return ast.Module(body=body, type_ignores=[])


def _block(lines, leaves, pos, indent):
    """Statements of the block at ``indent`` starting at ``lines[pos]``;
    returns ``(nodes, index of the first line past the block)``. A plain
    recursive function on purpose: a recursive closure would refer to
    itself through its own cell and keep every parsed node alive as cyclic
    garbage."""
    out = []
    count = len(lines)
    while pos < count:
        depth, text, key = lines[pos]
        if depth < indent:
            break
        if depth > indent:
            raise SyntaxError("unexpected indent in generated stage source: %r" % text)
        pos += 1
        if not text.endswith(":"):
            out.append(leaves[key])
            continue
        body, pos = _block(lines, leaves, pos, lines[pos][0])
        word = text.partition(" ")[0]
        if word == "else:":
            _chain_tail(out[-1]).orelse = body
        elif word == "try:":
            out.append(ast.Try(body=body, handlers=[], orelse=[], finalbody=[], **_LOC))
        elif word == "def":
            (node,) = ast.parse(text + " pass").body
            node.body = body
            out.append(node)
        else:
            head = leaves[key]
            if word == "if":
                out.append(ast.If(test=head.value, body=body, orelse=[], **_LOC))
            elif word == "elif":
                _chain_tail(out[-1]).orelse = [
                    ast.If(test=head.value, body=body, orelse=[], **_LOC)
                ]
            elif word == "while":
                out.append(ast.While(test=head.value, body=body, orelse=[], **_LOC))
            elif word == "except":
                out[-1].handlers.append(
                    ast.ExceptHandler(type=head.value, name=None, body=body, **_LOC)
                )
            elif word == "for":
                out.append(
                    ast.For(
                        target=head.targets[0], iter=head.value, body=body, orelse=[], **_LOC
                    )
                )
            else:
                raise SyntaxError("unexpected compound statement %r" % text)
    return out, pos


def _store_path(digest):
    base = cache_dir()
    if base is None:
        return None
    return os.path.join(
        base, _STORE_LAYER, "%s.%s" % (digest, sys.implementation.cache_tag)
    )


def _load_code(path):
    """The code object stored at ``path``, or None for a miss: absent,
    unreadable, written by another interpreter build, truncated, or not a
    code object at all. The caller recompiles and overwrites."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError:
        return None
    if not blob.startswith(_STORE_MAGIC):
        return None
    try:
        code = marshal.loads(blob[len(_STORE_MAGIC):])
    except (EOFError, ValueError, TypeError):
        return None
    return code if isinstance(code, types.CodeType) else None


def stage_function(source):
    """The ``__batch_stage`` function for ``source``: from the in-process
    table, else instantiated from the on-disk code store, else compiled
    (and stored for every later process sharing the cache directory).

    The digest is salted with the package version, like every
    :mod:`repro.cache` key, so upgrading the simulator orphans old entries.
    No lock: two processes missing on one key both compile and both
    write-then-rename the same bytes.
    """
    from .. import __version__

    digest = hashlib.sha256(
        ("v:%s\x00%s" % (__version__, source)).encode("utf-8")
    ).hexdigest()
    fn = _STAGE_FNS.get(digest)
    if fn is not None:
        return fn
    path = _store_path(digest)
    code = None if path is None else _load_code(path)
    if code is None:
        code = compile(_assemble(source), "<batchpath:%s>" % digest[:12], "exec")
        if path is not None:
            write_atomic(path, _STORE_MAGIC + marshal.dumps(code))
    namespace = {
        "BLOCKED": BLOCKED,
        "Ctrl": Ctrl,
        "SimulationError": SimulationError,
    }
    exec(code, namespace)
    fn = namespace["__batch_stage"]
    if len(_STAGE_FNS) >= _STAGE_FNS_MAX:
        _STAGE_FNS.clear()
    _STAGE_FNS[digest] = fn
    return fn
