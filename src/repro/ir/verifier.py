"""Structural verifier for Phloem IR.

Run after the frontend and after every compiler pass (the passes are simple,
and keeping them honest is what lets them stay simple). Raises
:class:`~repro.errors.IRVerificationError` with a precise message; when the
offending statement carries a source span (frontend-lowered code does), the
error carries its line/col so :mod:`repro.diag` can render it uniformly.
"""

from ..errors import IRVerificationError
from .values import is_array_symbol, is_reg

#: Statement kinds that operate on hardware queues. Serial Functions must
#: not contain them: queues only exist once the compiler has decoupled the
#: kernel into a pipeline.
QUEUE_KINDS = frozenset(
    ["enq", "enq_ctrl", "deq", "peek", "enq_dist", "enq_ctrl_dist"]
)


def _fail(msg, *args, span=None):
    message = msg % args if args else msg
    if span is not None:
        raise IRVerificationError(message, line=span.line, col=span.col)
    raise IRVerificationError(message)


def _span_of(stmt):
    return getattr(stmt, "span", None)


class _Scope:
    """Tracks which registers are defined on the walk so far."""

    def __init__(self, initial):
        self.defined = set(initial)

    def define(self, regs):
        self.defined.update(regs)

    def check_uses(self, stmt, where):
        for reg in stmt.uses():
            if reg not in self.defined:
                _fail(
                    "%s: use of undefined register %r in '%s'",
                    where,
                    reg,
                    stmt,
                    span=_span_of(stmt),
                )


def _verify_operand_shapes(stmt, arrays, where):
    for attr in ("array",):
        if hasattr(stmt, attr):
            op = getattr(stmt, attr)
            if is_array_symbol(op) and op[1:] not in arrays:
                _fail(
                    "%s: reference to undeclared array %s in '%s'",
                    where,
                    op,
                    stmt,
                    span=_span_of(stmt),
                )
            if not is_array_symbol(op) and not is_reg(op):
                _fail(
                    "%s: array operand must be a symbol or register in '%s'",
                    where,
                    stmt,
                    span=_span_of(stmt),
                )


def _verify_body(body, scope, arrays, readonly, loop_depth, where, queue_check=None):
    for stmt in body:
        scope.check_uses(stmt, where)
        _verify_operand_shapes(stmt, arrays, where)
        kind = stmt.kind

        if kind in ("store", "atomic_rmw"):
            if is_array_symbol(stmt.array) and stmt.array[1:] in readonly:
                _fail("%s: store to const array %s", where, stmt.array, span=_span_of(stmt))
        elif kind == "break":
            if stmt.levels < 1 or stmt.levels > loop_depth:
                _fail(
                    "%s: break %d with only %d enclosing loop(s)",
                    where,
                    stmt.levels,
                    loop_depth,
                    span=_span_of(stmt),
                )
        elif kind == "continue":
            if loop_depth < 1:
                _fail("%s: continue outside any loop", where, span=_span_of(stmt))
        elif kind in QUEUE_KINDS:
            if queue_check is not None:
                queue_check(stmt, where)
            else:
                _fail(
                    "%s: queue operation '%s' outside a pipeline stage",
                    where,
                    stmt,
                    span=_span_of(stmt),
                )

        if kind == "for":
            scope.define([stmt.var])
            for block in stmt.blocks():
                _verify_body(block, scope, arrays, readonly, loop_depth + 1, where, queue_check)
        elif kind == "loop":
            for block in stmt.blocks():
                _verify_body(block, scope, arrays, readonly, loop_depth + 1, where, queue_check)
        elif kind == "if":
            for block in stmt.blocks():
                _verify_body(block, scope, arrays, readonly, loop_depth, where, queue_check)

        scope.define(stmt.defs())


def _readonly_names(arrays):
    return {name for name, decl in arrays.items() if decl.readonly}


def verify_function(function):
    """Check a serial Function: defined-before-use, valid breaks, decls.

    Queue operations are rejected outright — a serial kernel has no queues;
    they appear only in pipeline stages where the queue table scopes them.
    """
    scope = _Scope(function.scalar_params)
    _verify_body(
        function.body,
        scope,
        function.arrays,
        _readonly_names(function.arrays),
        loop_depth=0,
        where="func %s" % function.name,
    )
    return True


def verify_pipeline(pipeline, max_queues=None, max_ras=None):
    """Check a PipelineProgram's wiring and each stage's body.

    * stage indices and RA ids are unique (endpoint descriptors would be
      ambiguous otherwise);
    * every queue has room for an entry and a producer and consumer that exist;
    * stages only enq to queues they produce and deq from queues they
      consume — and every queue id a statement references is declared in
      the program's queue table;
    * RA in/out queues are distinct and agree with the queue specs;
    * handlers are installed only on queues the stage consumes;
    * optional machine limits (queues, RAs) are respected.
    """
    if max_queues is not None and len(pipeline.queues) > max_queues:
        _fail("pipeline %s uses %d queues > machine limit %d", pipeline.name, len(pipeline.queues), max_queues)
    if max_ras is not None and len(pipeline.ras) > max_ras:
        _fail("pipeline %s uses %d RAs > machine limit %d", pipeline.name, len(pipeline.ras), max_ras)

    stage_ids = set()
    for stage in pipeline.stages:
        if stage.index in stage_ids:
            _fail(
                "pipeline %s has two stages with index %d: queue endpoints are ambiguous",
                pipeline.name,
                stage.index,
            )
        stage_ids.add(stage.index)
    ra_ids = set()
    for ra in pipeline.ras:
        if ra.raid in ra_ids:
            _fail("pipeline %s has two RAs with id %d", pipeline.name, ra.raid)
        ra_ids.add(ra.raid)

    def endpoint_ok(ep):
        kind, idx = ep
        if kind == "stage":
            return idx in stage_ids
        if kind == "ra":
            return idx in ra_ids
        if kind == "extern":
            # Reserved for replicated pipelines, where a remote replica is
            # the producer or consumer.
            return True
        return False

    for q in pipeline.queues.values():
        if q.capacity < 1:
            label = " (%s)" % q.label if q.label else ""
            _fail("queue %d%s has capacity %r, below 1 entry", q.qid, label, q.capacity)
        if not endpoint_ok(q.producer):
            _fail("queue %d has unknown producer %s", q.qid, q.producer)
        if not endpoint_ok(q.consumer):
            _fail("queue %d has unknown consumer %s", q.qid, q.consumer)

    for ra in pipeline.ras:
        if ra.in_queue == ra.out_queue:
            _fail("RA %d uses queue %d as both input and output", ra.raid, ra.in_queue)
        if ra.in_queue not in pipeline.queues:
            _fail("RA %d input queue %d undeclared", ra.raid, ra.in_queue)
        if ra.out_queue not in pipeline.queues:
            _fail("RA %d output queue %d undeclared", ra.raid, ra.out_queue)
        if pipeline.queues[ra.in_queue].consumer != ("ra", ra.raid):
            _fail("RA %d is not the consumer of its input queue %d", ra.raid, ra.in_queue)
        if pipeline.queues[ra.out_queue].producer != ("ra", ra.raid):
            _fail("RA %d is not the producer of its output queue %d", ra.raid, ra.out_queue)
        if is_array_symbol(ra.array) and ra.array[1:] not in pipeline.arrays:
            _fail("RA %d references undeclared array %s", ra.raid, ra.array)

    readonly = _readonly_names(pipeline.arrays)
    for stage in pipeline.stages:
        me = ("stage", stage.index)

        def queue_check(stmt, where, _me=me):
            q = pipeline.queues.get(stmt.queue)
            if q is None:
                _fail(
                    "%s: reference to undeclared queue %d",
                    where,
                    stmt.queue,
                    span=_span_of(stmt),
                )
            if stmt.kind in ("enq", "enq_ctrl", "enq_dist", "enq_ctrl_dist") and q.producer != _me:
                _fail(
                    "%s: stage is not the producer of queue %d",
                    where,
                    stmt.queue,
                    span=_span_of(stmt),
                )
            if stmt.kind in ("deq", "peek") and q.consumer != _me:
                _fail(
                    "%s: stage is not the consumer of queue %d",
                    where,
                    stmt.queue,
                    span=_span_of(stmt),
                )

        scope = _Scope(pipeline.scalar_params)
        _verify_body(
            stage.body,
            scope,
            pipeline.arrays,
            readonly,
            loop_depth=0,
            where="stage %d (%s)" % (stage.index, stage.name),
            queue_check=queue_check,
        )

        for qid, handler in stage.handlers.items():
            q = pipeline.queues.get(qid)
            if q is None or q.consumer != me:
                _fail(
                    "stage %d installs a handler on queue %d it does not consume",
                    stage.index,
                    qid,
                )
            hscope = _Scope(set(scope.defined) | {"%ctrl"})
            # Handlers run at a dequeue inside (possibly) nested loops; a
            # trailing Break is resolved against the dequeue's loop depth at
            # runtime, so allow breaks here with a generous static depth.
            _verify_body(
                handler,
                hscope,
                pipeline.arrays,
                readonly,
                loop_depth=8,
                where="stage %d handler(q%d)" % (stage.index, qid),
                queue_check=queue_check,
            )
    return True
