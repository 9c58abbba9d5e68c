"""Canonical serialization and content hashing of Phloem IR.

The printer (:mod:`repro.ir.printer`) renders IR for humans; this module
renders it for *machines*: a canonical, version-stable text form whose
SHA-256 digest identifies a :class:`~repro.ir.Function` or
:class:`~repro.ir.PipelineProgram` by content. The evaluation harness keys
its compiled-pipeline and serial-baseline caches on these fingerprints, so
two requirements drive the format:

* **Stability across processes.** No ``id()``, no builtin ``hash()`` (both
  vary per process), and every unordered container is emitted sorted.
* **Completeness.** A statement serializes every field its class declares
  (``__slots__``; the ``BODIES`` among them nested, one level deeper), so a
  new field cannot be left out of the hash; an object that declares none
  raises rather than silently hashing a partial view.

Pipeline ``meta`` is deliberately excluded: it records provenance (which
passes ran, selected points), not behaviour, and including it would split
cache entries that execute identically.
"""

import hashlib

from ..errors import PhloemError
from .program import Function, PipelineProgram
from .values import Ctrl


def _operand(value):
    """Canonical text of one operand; type-tagged so ``1`` != ``"1"``."""
    if value is None:
        return "none"
    if isinstance(value, Ctrl):
        return "ctrl:%s" % value.name
    if isinstance(value, bool):
        return "b:%d" % value
    if isinstance(value, int):
        return "i:%d" % value
    if isinstance(value, float):
        return "f:%s" % repr(value)
    if isinstance(value, str):
        return "s:%s" % value
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_operand(v) for v in value) + "]"
    raise PhloemError("cannot serialize operand %r" % (value,))


def _stmt_lines(stmt, indent, out):
    pad = " " * indent
    try:
        fields, bodies = type(stmt).__slots__, stmt.BODIES
    except AttributeError:
        raise PhloemError("cannot serialize statement kind %r" % (stmt.kind,))
    parts = [stmt.kind]
    for name in fields:
        if name not in bodies:
            parts.append(_operand(getattr(stmt, name)))
    out.append(pad + " ".join(parts))
    for i, name in enumerate(bodies):
        body = getattr(stmt, name)
        if i:  # an ``If``'s else arm: marked, and left out when empty
            if not body:
                continue
            out.append(pad + "else")
        _body_lines(body, indent + 1, out)


def _body_lines(body, indent, out):
    for stmt in body:
        _stmt_lines(stmt, indent, out)


def _array_line(name, decl):
    return "array %s size=%d readonly=%d restrict=%d float=%d" % (
        name,
        decl.elem_size,
        bool(decl.readonly),
        bool(decl.restrict),
        bool(decl.is_float),
    )


def canonical_function(function):
    """Canonical multi-line text of a serial :class:`Function`.

    Intrinsic *implementations* are opaque Python callables and cannot be
    hashed; an intrinsic contributes its name and cost, which is what the
    timing model sees. Callers swapping an intrinsic's behaviour without
    renaming it must bypass the caches.
    """
    out = ["function %s" % function.name]
    out.append("scalars " + ",".join(function.scalar_params))
    for name in sorted(function.arrays):
        out.append(_array_line(name, function.arrays[name]))
    for key in sorted(function.pragmas):
        out.append("pragma %s=%s" % (key, _operand(function.pragmas[key])))
    for name in sorted(function.intrinsics):
        out.append("intrinsic %s cost=%d" % (name, function.intrinsics[name].cost))
    out.append("body")
    _body_lines(function.body, 1, out)
    return "\n".join(out)


def canonical_pipeline(pipeline):
    """Canonical multi-line text of a :class:`PipelineProgram` (sans meta)."""
    out = ["pipeline %s" % pipeline.name]
    out.append("scalars " + ",".join(pipeline.scalar_params))
    for name in sorted(pipeline.arrays):
        out.append(_array_line(name, pipeline.arrays[name]))
    for name in sorted(pipeline.shared_vars):
        out.append("shared %s" % name)
    for name in sorted(pipeline.intrinsics):
        out.append("intrinsic %s cost=%d" % (name, pipeline.intrinsics[name].cost))
    for qid in sorted(pipeline.queues):
        q = pipeline.queues[qid]
        out.append(
            "queue %d cap=%d %s->%s label=%s"
            % (q.qid, q.capacity, _operand(q.producer), _operand(q.consumer), q.label)
        )
    for ra in pipeline.ras:
        out.append(
            "ra %d mode=%s array=%s in=%d out=%d fwd=%d"
            % (ra.raid, ra.mode, ra.array, ra.in_queue, ra.out_queue, bool(ra.forward_ctrl))
        )
    for stage in pipeline.stages:
        out.append("stage %d %s" % (stage.index, stage.name))
        _body_lines(stage.body, 1, out)
        for qid in sorted(stage.handlers):
            out.append(" handler %d" % qid)
            _body_lines(stage.handlers[qid], 2, out)
    return "\n".join(out)


def fingerprint(obj):
    """SHA-256 content hash of a Function or PipelineProgram.

    Stable across processes and Python versions; two objects with the same
    fingerprint execute identically under the simulator.
    """
    if isinstance(obj, Function):
        text = canonical_function(obj)
    elif isinstance(obj, PipelineProgram):
        text = canonical_pipeline(obj)
    else:
        raise PhloemError("cannot fingerprint %r" % (type(obj).__name__,))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
