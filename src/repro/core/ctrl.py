"""Passes 4-6: control values, inter-stage DCE, control-value handlers.

**Use control values (pass 4).** A consumer loop whose bounds arrive by
queue (``deq lo; deq hi; for (e = lo; e < hi; ...)``) stops computing its
trip count: the producer appends an in-band ``NEXT`` marker to the element
stream, the consumer becomes ``while (true)`` with an ``is_control`` check,
and the bounds queues disappear.

**Inter-stage DCE (pass 6).** When the consumer's enclosing counted loop
does nothing but run the element loop (nobody cares which vertex a
neighbor belonged to), the per-iteration ``NEXT`` markers are superfluous:
the two loops collapse into one stream consumed until a single ``DONE``
per phase, and the producer's marker moves out of its loop. Processed
downstream-first so middle stages collapse on both sides.

**Control-value handlers (pass 5).** The explicit ``is_control`` check in
the inner loop still costs instructions per element; Pipette's handlers
eliminate it. The ``deq; is_control; if (ctrl) {...}`` prefix moves into a
hardware handler attached to the queue, leaving a bare dequeue in the loop.
"""

from ..analysis.defs import DefUse
from ..ir import stmts as S
from ..ir.stmts import find_container, loop_chain, remove, substitute_uses, walk
from ..ir.values import Ctrl


def _find_enqs(stage, qid):
    return [s for s in walk(stage.body) if s.kind == "enq" and s.queue == qid]


# ---------------------------------------------------------------------------
# Pass 4: use control values


def apply_control_values(pipeline):
    """Convert bounded consumer loops fed by queued bounds into
    control-value-terminated streams."""
    converted = []
    # Downstream stages first: converting a boundary removes the bounds
    # forwards from its producer, which is what makes the producer's own
    # upstream boundary convertible. Sweep until a fixpoint for safety.
    changed = True
    while changed:
        changed = False
        for stage in reversed(pipeline.stages):
            du = None  # built at the stage's first candidate, rebuilt after a rewrite
            for for_stmt in list(walk(stage.body)):
                if not _is_stream_loop(for_stmt):
                    continue
                if du is None:
                    du = DefUse(stage.body)
                if _try_convert_loop(pipeline, stage, for_stmt, du):
                    converted.append(stage.index)
                    changed = True
                    du = None
    if converted:
        pipeline.meta.setdefault("passes", []).append("cv")
    return pipeline


def _is_stream_loop(stmt):
    """``for (v = lo; v < hi; v++) { x = deq(q); ... }`` with register bounds."""
    return (
        stmt.kind == "for"
        and type(stmt.lo) is str
        and type(stmt.hi) is str
        and stmt.step == 1
        and bool(stmt.body)
        and stmt.body[0].kind == "deq"
    )


def _try_convert_loop(pipeline, stage, for_stmt, du):
    lo, hi = for_stmt.lo, for_stmt.hi
    elem_deq = for_stmt.body[0]
    qe = elem_deq.queue
    # Bounds must each come from their own queue and be used only here.
    lo_def, hi_def = du.single_def(lo), du.single_def(hi)
    if lo_def is None or hi_def is None:
        return False
    if lo_def.kind != "deq" or hi_def.kind != "deq" or lo_def.queue == hi_def.queue:
        return False
    for reg in (lo, hi):
        if any(stmt is not for_stmt for stmt in du.uses.get(reg, ())):
            return False
    if any(for_stmt.var in s.uses() for s in walk(for_stmt.body)):
        return False

    producer = pipeline.producer_stage(qe)
    if producer is None:
        return False
    elem_enqs = _find_enqs(producer, qe)
    if not elem_enqs:
        return False
    chain = loop_chain(producer.body, elem_enqs[0])
    if not chain:
        return False
    gen_loop = chain[-1]

    # Producer: drop the bounds enqueues, add the NEXT marker after the
    # generating loop.
    bounds_enqs = _find_enqs(producer, lo_def.queue) + _find_enqs(producer, hi_def.queue)
    if len(bounds_enqs) != 2:
        return False
    remove(producer.body, bounds_enqs)
    container = find_container(producer.body, gen_loop)
    container.insert(container.index(gen_loop) + 1, S.EnqCtrl(qe, Ctrl(Ctrl.NEXT)))

    # Consumer: drop the bounds dequeues; For -> ctrl-terminated Loop.
    remove(stage.body, [lo_def, hi_def])
    ctl = "%c_q%d" % (qe, stage.index)
    new_body = [elem_deq, S.IsControl(ctl, elem_deq.dst), S.If(ctl, [S.Break(1)], [])]
    new_body.extend(for_stmt.body[1:])
    loop = S.Loop(new_body)
    holder = find_container(stage.body, for_stmt)
    holder[holder.index(for_stmt)] = loop

    del pipeline.queues[lo_def.queue]
    del pipeline.queues[hi_def.queue]
    pipeline.meta.setdefault("cv_queues", []).append(qe)
    return True


# ---------------------------------------------------------------------------
# Pass 6: inter-stage dead code elimination (superfluous control values)


def apply_interstage_dce(pipeline):
    """Collapse per-iteration NEXT markers into one DONE per phase."""
    elem_queues = list(pipeline.meta.get("cv_queues", []))

    def downstream_first(qid):
        consumer = pipeline.consumer_stage(qid)
        return -consumer.index if consumer is not None else 1

    # Downstream boundaries first, so a middle stage's outgoing marker moves
    # out of the loop before its own enclosing loop is considered.
    elem_queues.sort(key=downstream_first)
    collapsed = []
    for qid in elem_queues:
        if qid in pipeline.queues and _try_collapse(pipeline, qid):
            collapsed.append(qid)
    if collapsed:
        pipeline.meta.setdefault("passes", []).append("dce")
        pipeline.meta["collapsed_queues"] = collapsed
    return pipeline


def _try_collapse(pipeline, qe):
    consumer = pipeline.consumer_stage(qe)
    producer = pipeline.producer_stage(qe)
    if consumer is None or producer is None:
        return False

    # Find the consumer's ctrl-terminated Loop for qe and its enclosing For.
    loop = None
    for stmt in walk(consumer.body):
        if stmt.kind == "loop" and stmt.body and stmt.body[0].kind == "deq" and stmt.body[0].queue == qe:
            loop = stmt
            break
    if loop is None:
        return False
    chain = loop_chain(consumer.body, loop)
    if not chain:
        return False
    outer = chain[-1]
    if outer.kind != "for":
        return False
    if [s for s in outer.body if s is not loop]:
        return False  # the counted loop does more than run the stream
    if any(outer.var in s.uses() for s in walk(loop.body)):
        return False

    # Find the producer's per-iteration marker for qe.
    marker = None
    for stmt in walk(producer.body):
        if stmt.kind == "enq_ctrl" and stmt.queue == qe and stmt.ctrl.name == Ctrl.NEXT:
            marker = stmt
            break
    if marker is None:
        return False
    m_chain = loop_chain(producer.body, marker)
    if not m_chain:
        return False
    m_outer = m_chain[-1]
    if m_outer.kind != "for":
        # The marker already sits at phase level (or under an unbounded
        # loop); hoisting it further would break the per-phase protocol.
        return False

    # Producer: one DONE after the outer generating loop instead of NEXT
    # per iteration.
    remove(producer.body, [marker])
    container = find_container(producer.body, m_outer)
    container.insert(container.index(m_outer) + 1, S.EnqCtrl(qe, Ctrl(Ctrl.DONE)))

    # Consumer: splice the stream loop up in place of the counted loop.
    holder = find_container(consumer.body, outer)
    holder[holder.index(outer)] = loop
    return True


# ---------------------------------------------------------------------------
# Pass 5: control-value handlers


def apply_control_handlers(pipeline):
    """Move ``deq; is_control; if`` prefixes into hardware handlers."""
    installed = []
    for stage in pipeline.stages:
        for loop in list(walk(stage.body)):
            if loop.kind != "loop" or len(loop.body) < 3:
                continue
            deq, check, branch = loop.body[0], loop.body[1], loop.body[2]
            if deq.kind != "deq" or check.kind != "is_control" or branch.kind != "if":
                continue
            if check.src != deq.dst or branch.cond != check.dst or branch.else_body:
                continue
            if deq.queue in stage.handlers:
                continue
            arm = branch.then_body
            if not arm or arm[-1].kind != "break":
                continue
            if any(s.kind not in ("break", "enq_ctrl", "enq", "comment") for s in arm):
                continue
            handler = [s.clone() for s in arm]
            substitute_uses(handler, {deq.dst: "%ctrl"})
            stage.handlers[deq.queue] = handler
            loop.body[1:3] = []
            installed.append((stage.index, deq.queue))
    if installed:
        pipeline.meta.setdefault("passes", []).append("handlers")
        pipeline.meta["handlers"] = installed
    return pipeline
