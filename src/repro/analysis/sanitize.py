"""Static pipeline-safety analyzer (the ``repro lint`` pass suite).

Runs on a decoupled :class:`~repro.ir.PipelineProgram` — after every
compiler transform in ``--verify-each`` mode and once before execution —
and turns the runtime's failure modes into compile-time diagnostics
(:mod:`repro.diag` codes):

**Token balance (PHL10x).** Abstract interpretation over each stage's
region tree computes, per queue, how many data tokens and control values
the stage enqueues/dequeues: an exact count when control flow allows it,
``TOP`` (unknown) otherwise. Counted loops with constant bounds multiply
their body's effect; ``if`` joins require both arms to agree or the count
degrades to ``TOP`` (and, when the peer's count is exact, yields a
conditional-imbalance warning). Producers are resolved *through* reference
accelerators: an INDIRECT RA forwards one output token per input token, so
balance flows across it, while a SCAN RA's output multiplicity is data
dependent and blocks exact matching. Sentinel analysis checks that every
control-terminated consumer loop (or installed handler) has a producer
that actually sends a control value.

**Deadlock (PHL20x).** The stage/queue topology graph is checked for
cycles (Tarjan SCCs). Every cycle gets a warning; a cycle is escalated to
a *capacity-infeasible* error when some member stage can enqueue more
tokens into the cycle than the cycle's total queue depth before it
dequeues anything from it (a credit-based sufficiency check against each
queue's ``QueueSpec.capacity``). A fan-in ordering check catches the bounded-
queue deadlock where a producer fills one queue completely before feeding
the queue its consumer is blocked on.

**Cross-stage races (PHL30x).** Restrict-aware use/def analysis (reusing
:mod:`repro.analysis.alias`) classifies every array accessed by two or
more stages as read-only, single-writer, or conflicting: write-write pairs
and loads of a written class from another stage are exactly the paper's
Fig. 4 race and are hard errors (prefetches are allowed — that is the
paper's resolution). Shared scalar cells crossing stages without a
barrier, and non-commutative reductions under ``#pragma phloem
replicate``, round out the lint.

Findings carry the source span of the offending statement when the
frontend lowered it (compiler-synthesized statements fall back to a
``stage``/``queue`` context string).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ..diag import DiagnosticSet
from ..ir.program import RA_SCAN
from ..ir.stmts import loop_chain, positions, walk
from .alias import access_class

#: Unknown multiplicity in the token-count abstract domain.
TOP = "?"

#: Token counts are ``int`` or :data:`TOP` — an untagged union the abstract
#: arithmetic helpers below normalize, so the alias is deliberately loose.
Count = Any

#: Binary ops that are NOT commutative reductions: accumulating with one of
#: these under replication makes the result depend on arrival order.
NON_COMMUTATIVE = frozenset(["sub", "div", "mod", "shl", "shr"])

#: Cross-stage classification verdicts (see :func:`classify_cross_stage`).
READ_ONLY = "read-only"
SINGLE_WRITER = "single-writer"
CONFLICTING = "conflicting"


# ---------------------------------------------------------------------------
# Token-count abstract domain


def _c_add(a: Count, b: Count) -> Count:
    return TOP if (a is TOP or b is TOP) else a + b


def _c_mul(a: Count, b: Count) -> Count:
    if a == 0 or b == 0:
        return 0
    return TOP if (a is TOP or b is TOP) else a * b


def _c_fmt(c: Count) -> str:
    return "?" if c is TOP else str(c)


class _QEffect:
    """Per-queue token effect of a region: enq/ctrl/deq/peek counts."""

    __slots__ = ("enq", "ctrl", "deq", "peek")

    def __init__(self, enq: Count = 0, ctrl: Count = 0, deq: Count = 0, peek: Count = 0) -> None:
        self.enq = enq
        self.ctrl = ctrl
        self.deq = deq
        self.peek = peek

    FIELDS = ("enq", "ctrl", "deq", "peek")


class _Imbalance:
    """A branch whose arms disagree on a queue effect (candidate PHL104)."""

    __slots__ = ("qid", "field", "stmt", "then_count", "else_count")

    def __init__(self, qid: Any, field: str, stmt: Any, then_count: Count, else_count: Count) -> None:
        self.qid = qid
        self.field = field
        self.stmt = stmt
        self.then_count = then_count
        self.else_count = else_count


def _escapes(body: Any, depth: int = 0) -> bool:
    """True if ``body`` can break/continue out of the loop enclosing it."""
    for stmt in body:
        if stmt.kind == "break" and stmt.levels > depth:
            return True
        if stmt.kind == "continue" and depth == 0:
            return True
        extra = 1 if stmt.kind in ("for", "loop") else 0
        for block in stmt.blocks():
            if _escapes(block, depth + extra):
                return True
    return False


def _trip_count(stmt: Any) -> Count:
    """Exact trip count of a counted loop, or TOP."""
    if stmt.kind != "for":
        return TOP
    lo, hi, step = stmt.lo, stmt.hi, stmt.step
    if isinstance(lo, (int, float)) and isinstance(hi, (int, float)) and isinstance(step, (int, float)) and step > 0:
        trips = int(max(0, (hi - lo + step - 1) // step))
        return trips
    return TOP


def body_effects(body: Any, imbalances: Optional[list[_Imbalance]] = None) -> dict[Any, _QEffect]:
    """Abstractly interpret ``body``; returns ``{qid: _QEffect}``.

    ``imbalances`` (a list) collects branch arms that disagree on a queue
    effect; the caller decides which of those are worth a diagnostic.
    """
    if imbalances is None:
        imbalances = []
    eff: dict[Any, _QEffect] = {}

    def bump(qid: Any, field: str, count: Count) -> None:
        qe = eff.setdefault(qid, _QEffect())
        setattr(qe, field, _c_add(getattr(qe, field), count))

    for stmt in body:
        kind = stmt.kind
        if kind in ("enq", "enq_dist"):
            # Enqueueing the %ctrl register is how a handler forwards a
            # control value downstream: count it as a control send, not data.
            if stmt.value == "%ctrl":
                bump(stmt.queue, "ctrl", 1)
            else:
                bump(stmt.queue, "enq", 1)
        elif kind in ("enq_ctrl", "enq_ctrl_dist"):
            bump(stmt.queue, "ctrl", 1)
        elif kind == "deq":
            bump(stmt.queue, "deq", 1)
        elif kind == "peek":
            bump(stmt.queue, "peek", 1)
        elif kind == "if":
            then_eff = body_effects(stmt.then_body, imbalances)
            else_eff = body_effects(stmt.else_body, imbalances)
            for qid in set(then_eff) | set(else_eff):
                t = then_eff.get(qid, _QEffect())
                e = else_eff.get(qid, _QEffect())
                for field in _QEffect.FIELDS:
                    tc, ec = getattr(t, field), getattr(e, field)
                    if tc == ec:
                        bump(qid, field, tc)
                    else:
                        imbalances.append(_Imbalance(qid, field, stmt, tc, ec))
                        bump(qid, field, TOP)
        elif kind in ("for", "loop"):
            inner = body_effects(stmt.body, imbalances)
            if inner:
                trip = _trip_count(stmt)
                if _escapes(stmt.body):
                    # The loop may exit early: any multiplicity is possible
                    # between 0 and trip, so exact counts do not survive.
                    trip = TOP
                for qid, qe in inner.items():
                    for field in _QEffect.FIELDS:
                        count = getattr(qe, field)
                        if count != 0:
                            bump(qid, field, _c_mul(trip, count))
    return eff


def stage_effects(stage: Any) -> tuple[dict[Any, _QEffect], list[_Imbalance]]:
    """Token effects of a whole stage (body + handlers), with imbalances."""
    imbalances: list[_Imbalance] = []
    eff = body_effects(stage.body, imbalances)
    for handler in stage.handlers.values():
        # A handler runs an unknown number of times (once per control value
        # delivered): its queue effects are TOP-scaled.
        heff = body_effects(handler, imbalances)
        for qid, qe in heff.items():
            tgt = eff.setdefault(qid, _QEffect())
            for field in _QEffect.FIELDS:
                count = getattr(qe, field)
                if count != 0:
                    setattr(tgt, field, TOP)
    return eff, imbalances


# ---------------------------------------------------------------------------
# Helpers


def _first_span(stmts_iter: Iterable[Any]) -> Optional[Any]:
    for stmt in stmts_iter:
        if stmt.span is not None:
            return stmt.span
    return None


#: Statement kinds that name a queue.
_QUEUE_KINDS = frozenset(["enq", "enq_ctrl", "enq_dist", "enq_ctrl_dist", "deq", "peek"])


class _StageIndex:
    """What the checks ask of one stage, from one walk of its body and
    handlers (``all_stmts`` order): queue operations by qid, array reads
    (loads, prefetches) and writes by alias class, the ``is_control`` tests,
    the shared-cell accesses, and whether it has a barrier. Built per
    :func:`sanitize_pipeline` call, never kept."""

    __slots__ = ("queue_ops", "reads", "writes", "ctrl_tests", "shared", "has_barrier")

    def __init__(self, stage: Any) -> None:
        self.queue_ops: dict[Any, list[Any]] = {}
        self.reads: dict[Any, list[Any]] = {}
        self.writes: dict[Any, list[Any]] = {}
        self.ctrl_tests: list[Any] = []
        self.shared: list[Any] = []
        self.has_barrier = False
        for stmt in stage.all_stmts():
            kind = stmt.kind
            if kind in _QUEUE_KINDS:
                self.queue_ops.setdefault(stmt.queue, []).append(stmt)
            elif kind in ("load", "prefetch"):
                self.reads.setdefault(access_class(stmt.array), []).append(stmt)
            elif kind in ("store", "atomic_rmw"):
                self.writes.setdefault(access_class(stmt.array), []).append(stmt)
            elif kind == "is_control":
                self.ctrl_tests.append(stmt)
            elif kind in ("read_shared", "write_shared"):
                self.shared.append(stmt)
            elif kind == "barrier":
                self.has_barrier = True


def _index_stages(pipeline: Any) -> dict[int, _StageIndex]:
    """``{id(stage): _StageIndex}``: every stage of ``pipeline`` walked once."""
    return {id(stage): _StageIndex(stage) for stage in pipeline.stages}


def _queue_stmts(
    index: dict[int, _StageIndex], stage: Any, qid: Any, kinds: tuple[str, ...]
) -> list[Any]:
    return [s for s in index[id(stage)].queue_ops.get(qid, ()) if s.kind in kinds]


def _stage_label(stage: Any) -> str:
    return "stage %d (%s)" % (stage.index, stage.name)


# ---------------------------------------------------------------------------
# Token-balance analysis (PHL101-PHL105)


def check_token_balance(
    pipeline: Any, diags: DiagnosticSet, index: Optional[dict[int, _StageIndex]] = None
) -> None:
    """Prove per-queue enqueue/dequeue balance, or report why not.

    ``index`` is the call's :func:`_index_stages` (built here when absent),
    as for :func:`check_deadlock` and :func:`check_races`.
    """
    if index is None:
        index = _index_stages(pipeline)
    effects: dict[Any, dict[Any, _QEffect]] = {}
    imbalances: dict[Any, list[_Imbalance]] = {}
    for stage in pipeline.stages:
        effects[stage.index], imbalances[stage.index] = stage_effects(stage)

    for qid in pipeline.queue_ids():
        spec = pipeline.queues[qid]
        if spec.producer[0] == "extern" or spec.consumer[0] == "extern":
            continue  # replicated remote endpoints: balance is global
        producer = pipeline.producer_stage(qid)
        consumer = pipeline.consumer_stage(qid)

        # -- consumption: the declared consumer must actually drain ------
        if consumer is not None:
            ceff = effects[consumer.index].get(qid, _QEffect())
            drains = ceff.deq != 0 or ceff.peek != 0 or qid in consumer.handlers
            if not drains:
                span = None
                if producer is not None:
                    span = _first_span(
                        _queue_stmts(index, producer, qid, ("enq", "enq_dist", "enq_ctrl"))
                    )
                diags.add(
                    "PHL101",
                    "queue %d%s is produced but %s never dequeues it: "
                    "tokens accumulate until the producer blocks forever"
                    % (qid, _qlabel(spec), _stage_label(consumer)),
                    span=span,
                    where=_stage_label(consumer),
                )
                continue

        # -- production: the declared producer must actually feed it -----
        if producer is not None:
            peff = effects[producer.index].get(qid, _QEffect())
            if peff.enq == 0 and peff.ctrl == 0:
                diags.add(
                    "PHL102",
                    "queue %d%s is consumed but %s never enqueues to it: "
                    "the consumer starves" % (qid, _qlabel(spec), _stage_label(producer)),
                    where=_stage_label(producer),
                )
                continue

        if consumer is None:
            continue  # RA-consumed queues drain by construction

        # -- sentinel/termination tokens ---------------------------------
        # The producer resolves through the RA chain: an RA that drops
        # control values breaks termination, and a SCAN RA's data-dependent
        # output count rules out exact multiplicity matching.
        origin, _oqid, ras = pipeline.upstream(qid)
        ctrl_ok = all(ra.forward_ctrl for ra in ras)
        exact = all(ra.mode != RA_SCAN for ra in ras)
        if _consumes_ctrl(index[id(consumer)], consumer, qid):
            origin_ctrl: Count = 0
            if origin is not None:
                origin_ctrl = effects[origin.index].get(_oqid, _QEffect()).ctrl
            if not ctrl_ok:
                diags.add(
                    "PHL103",
                    "queue %d%s: %s terminates on control values but an RA in "
                    "the chain drops them (forward_ctrl=False)"
                    % (qid, _qlabel(spec), _stage_label(consumer)),
                    where=_stage_label(consumer),
                )
            elif origin is not None and origin_ctrl == 0:
                span = _first_span(_queue_stmts(index, consumer, qid, ("deq", "peek")))
                diags.add(
                    "PHL103",
                    "queue %d%s: %s waits for a control value that %s never "
                    "sends (missing sentinel: the consumer loop cannot "
                    "terminate)"
                    % (
                        qid,
                        _qlabel(spec),
                        _stage_label(consumer),
                        _stage_label(origin),
                    ),
                    span=span,
                    where=_stage_label(consumer),
                )

        # -- multiplicity matching ---------------------------------------
        if origin is None or not exact:
            continue
        peff = effects[origin.index].get(_oqid, _QEffect())
        ceff = effects[consumer.index].get(qid, _QEffect())
        produced, consumed = peff.enq, ceff.deq
        if produced is not TOP and consumed is not TOP and produced != consumed:
            span = _first_span(
                _queue_stmts(index, origin, _oqid, ("enq", "enq_dist"))
                + _queue_stmts(index, consumer, qid, ("deq",))
            )
            diags.add(
                "PHL105",
                "queue %d%s: %s enqueues %s token(s) per run but %s dequeues "
                "%s — the pipeline %s"
                % (
                    qid,
                    _qlabel(spec),
                    _stage_label(origin),
                    _c_fmt(produced),
                    _stage_label(consumer),
                    _c_fmt(consumed),
                    "deadlocks" if _c_lt(produced, consumed) else "leaks tokens",
                ),
                span=span,
                where="queue %d" % qid,
            )
        elif produced is TOP and consumed is TOP:
            _match_loop_rates(index, origin, _oqid, consumer, qid, diags)

        # -- conditional imbalance (warnings) ----------------------------
        if origin is not None and consumed is not TOP and consumed != 0:
            for imb in imbalances[origin.index]:
                if imb.qid == _oqid and imb.field == "enq":
                    diags.add(
                        "PHL104",
                        "queue %d%s: %s enqueues %s token(s) on one branch "
                        "but %s on the other, while %s dequeues exactly %s — "
                        "token balance depends on the branch taken"
                        % (
                            qid,
                            _qlabel(spec),
                            _stage_label(origin),
                            _c_fmt(imb.then_count),
                            _c_fmt(imb.else_count),
                            _stage_label(consumer),
                            _c_fmt(consumed),
                        ),
                        span=imb.stmt.span,
                        where=_stage_label(origin),
                    )


def _qlabel(spec: Any) -> str:
    return " (%s)" % spec.label if spec.label else ""


def _c_lt(a: Count, b: Count) -> bool:
    return a is not TOP and b is not TOP and bool(a < b)


def _consumes_ctrl(stage_index: _StageIndex, stage: Any, qid: Any) -> bool:
    """Does ``stage`` terminate its consumption of ``qid`` on a control value?"""
    if qid in stage.handlers:
        return True
    deq_dsts = {s.dst for s in stage_index.queue_ops.get(qid, ()) if s.kind in ("deq", "peek")}
    return any(s.src in deq_dsts for s in stage_index.ctrl_tests)


def _match_loop_rates(
    index: dict[int, _StageIndex],
    producer: Any,
    pqid: Any,
    consumer: Any,
    cqid: Any,
    diags: DiagnosticSet,
) -> None:
    """Refine TOP-vs-TOP multiplicity: same counted loop, different rates.

    When every enqueue sits in one counted loop and every dequeue sits in a
    counted loop with *syntactically identical* bounds, the trip counts
    cancel and the per-iteration rates must match.
    """
    enqs = _queue_stmts(index, producer, pqid, ("enq", "enq_dist"))
    deqs = _queue_stmts(index, consumer, cqid, ("deq",))
    if not enqs or not deqs:
        return
    p_loops = {id(loop): loop for loop in (_innermost_for(producer.body, s) for s in enqs)}
    c_loops = {id(loop): loop for loop in (_innermost_for(consumer.body, s) for s in deqs)}
    if len(p_loops) != 1 or len(c_loops) != 1:
        return
    p_loop = next(iter(p_loops.values()))
    c_loop = next(iter(c_loops.values()))
    if p_loop is None or c_loop is None:
        return
    if (p_loop.lo, p_loop.hi, p_loop.step) != (c_loop.lo, c_loop.hi, c_loop.step):
        return
    if _escapes(p_loop.body) or _escapes(c_loop.body):
        return
    p_rate = body_effects(p_loop.body).get(pqid, _QEffect()).enq
    c_rate = body_effects(c_loop.body).get(cqid, _QEffect()).deq
    if p_rate is TOP or c_rate is TOP or p_rate == c_rate:
        return
    diags.add(
        "PHL105",
        "queue %d: per iteration of the shared loop over [%s, %s), %s "
        "enqueues %s token(s) but %s dequeues %s — the pipeline %s"
        % (
            cqid,
            p_loop.lo,
            p_loop.hi,
            _stage_label(producer),
            _c_fmt(p_rate),
            _stage_label(consumer),
            _c_fmt(c_rate),
            "deadlocks" if _c_lt(p_rate, c_rate) else "leaks tokens",
        ),
        span=_first_span(enqs + deqs),
        where="queue %d" % cqid,
    )


def _innermost_for(body: Any, target: Any) -> Optional[Any]:
    """The innermost *counted* loop enclosing ``target``, or None."""
    chain = loop_chain(body, target)
    if not chain:
        return None
    for loop in reversed(chain):
        if loop.kind == "for":
            return loop
    return None


# ---------------------------------------------------------------------------
# Deadlock analysis (PHL201-PHL203)


def _sccs(graph: dict[Any, list[Any]]) -> list[list[Any]]:
    """Tarjan strongly-connected components, iteratively."""
    index: dict[Any, int] = {}
    lowlink: dict[Any, int] = {}
    on_stack: dict[Any, bool] = {}
    stack: list[Any] = []
    sccs: list[list[Any]] = []
    counter = [0]

    for root in graph:
        if root in index:
            continue
        work = [(root, iter(graph[root]))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, it = work[-1]
            advanced = False
            for succ, _qid in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(graph[succ])))
                    advanced = True
                    break
                if on_stack.get(succ):
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    comp.append(member)
                    if member == node:
                        break
                sccs.append(comp)
    return sccs


def _node_label(pipeline: Any, node: Any) -> str:
    kind, idx = node
    if kind == "stage":
        stage = pipeline.stage(idx)
        return _stage_label(stage) if stage is not None else "stage %d" % idx
    return "RA %d" % idx


def _c_max(a: Count, b: Count) -> Count:
    return TOP if (a is TOP or b is TOP) else max(a, b)


def _max_burst(body: Any, qout: Any, qin: Any) -> Count:
    """Max consecutive enqueues to ``qout`` without a dequeue of ``qin``.

    Abstract: a dequeue (or peek) of ``qin`` hands credit back to the
    cycle, resetting the run. Returns ``(pending, best)`` at each level:
    ``pending`` is the run still open at the end of the region, ``best``
    the longest run observed anywhere inside it.
    """

    def seq(body: Any, pending: Count) -> tuple[Count, Count]:
        best = pending
        for stmt in body:
            kind = stmt.kind
            if kind in ("enq", "enq_ctrl", "enq_dist", "enq_ctrl_dist") and stmt.queue == qout:
                pending = _c_add(pending, 1)
                best = _c_max(best, pending)
            elif kind in ("deq", "peek") and stmt.queue == qin:
                pending = 0
            elif kind == "if":
                t_pending, t_best = seq(stmt.then_body, pending)
                e_pending, e_best = seq(stmt.else_body, pending)
                pending = _c_max(t_pending, e_pending)
                best = _c_max(best, _c_max(t_best, e_best))
            elif kind in ("for", "loop"):
                iter_pending, iter_best = seq(stmt.body, 0)
                if iter_pending == 0 and iter_best == 0:
                    continue
                trip = TOP if _escapes(stmt.body) else _trip_count(stmt)
                has_reset = any(
                    s.kind in ("deq", "peek") and s.queue == qin for s in walk(stmt.body)
                )
                if has_reset:
                    # Each iteration hands credit back. The worst run spans
                    # the entry run plus one iteration head, or one
                    # iteration tail plus the next head; both are bounded
                    # by iter_best (+ pending / + iter_best).
                    best = _c_max(best, _c_add(pending, iter_best))
                    best = _c_max(best, _c_add(iter_best, iter_best))
                    # The loop may run zero times: the entry run can survive.
                    pending = _c_max(pending, iter_best)
                else:
                    # No credit returned inside: runs accumulate trip times.
                    pending = _c_add(pending, _c_mul(trip, iter_pending))
                    best = _c_max(best, pending)
        return pending, best

    pending, best = seq(body, 0)
    return _c_max(pending, best)


def check_deadlock(
    pipeline: Any, diags: DiagnosticSet, index: Optional[dict[int, _StageIndex]] = None
) -> None:
    """Cycle + credit-based capacity feasibility over the topology graph."""
    if index is None:
        index = _index_stages(pipeline)
    graph = pipeline.successors()
    edges: dict[Any, list[Any]] = {}
    for src, succs in graph.items():
        for dst, qid in succs:
            edges.setdefault((src, dst), []).append(qid)

    for comp in _sccs(graph):
        comp_set = set(comp)
        cyc_queues = [
            qid
            for (src, dst), qids in edges.items()
            if src in comp_set and dst in comp_set
            for qid in qids
        ]
        is_cycle = len(comp) > 1 or any(
            src == dst for (src, dst) in edges if src in comp_set and dst in comp_set
        )
        if not is_cycle:
            continue
        chain = " -> ".join(sorted(_node_label(pipeline, n) for n in comp))
        diags.add(
            "PHL201",
            "stages form a queue cycle (%s via queue(s) %s): progress "
            "depends on queue credit, not just data availability"
            % (chain, ", ".join(str(q) for q in sorted(cyc_queues))),
            where="queues %s" % ",".join(str(q) for q in sorted(cyc_queues)),
        )
        credit = sum(pipeline.queues[qid].capacity for qid in cyc_queues)
        for node in comp:
            if node[0] != "stage":
                continue
            stage = pipeline.stage(node[1])
            outs = [
                qid
                for (src, dst), qids in edges.items()
                if src == node and dst in comp_set
                for qid in qids
            ]
            ins = [
                qid
                for (src, dst), qids in edges.items()
                if dst == node and src in comp_set
                for qid in qids
            ]
            for qout in outs:
                for qin in ins:
                    burst = _max_burst(stage.body, qout, qin)
                    if burst is TOP or burst > credit:
                        diags.add(
                            "PHL202",
                            "%s can enqueue %s token(s) into queue %d before "
                            "dequeuing queue %d, but the cycle only buffers "
                            "%d: the cycle deadlocks once credit runs out"
                            % (
                                _stage_label(stage),
                                _c_fmt(burst),
                                qout,
                                qin,
                                credit,
                            ),
                            span=_first_span(_queue_stmts(index, stage, qout, ("enq", "enq_dist"))),
                            where=_stage_label(stage),
                        )

    _check_fanin_order(pipeline, diags, index)


def _check_fanin_order(
    pipeline: Any, diags: DiagnosticSet, index: dict[int, _StageIndex]
) -> None:
    """PHL203: producer fills queue A completely before feeding queue B,
    while the consumer blocks on B before draining A."""
    pairs: dict[Any, list[Any]] = {}
    for qid in pipeline.queue_ids():
        producer, consumer = pipeline.producer_stage(qid), pipeline.consumer_stage(qid)
        if producer is not None and consumer is not None:
            pairs.setdefault((producer, consumer), []).append(pipeline.queues[qid])
    for (producer, consumer), qs in pairs.items():
        if len(qs) < 2:
            continue
        ppos = positions(producer.body)
        cpos = positions(consumer.body)
        for qa in qs:
            a_enqs = _queue_stmts(index, producer, qa.qid, ("enq", "enq_dist"))
            a_deqs = _queue_stmts(index, consumer, qa.qid, ("deq", "peek"))
            if not (a_enqs and a_deqs):
                continue
            loop = _innermost_for(producer.body, a_enqs[0])
            if loop is None:
                chain = loop_chain(producer.body, a_enqs[0])
                loop = chain[-1] if chain else None
            if loop is None:
                continue
            in_loop = {id(s) for s in walk(loop.body)}
            for qb in qs:
                if qa.qid == qb.qid:
                    continue
                b_enqs = _queue_stmts(
                    index, producer, qb.qid, ("enq", "enq_dist", "enq_ctrl", "enq_ctrl_dist")
                )
                b_deqs = _queue_stmts(index, consumer, qb.qid, ("deq", "peek"))
                if not (b_enqs and b_deqs):
                    continue
                if any(id(s) in in_loop for s in b_enqs):
                    continue  # interleaved: the consumer can make progress
                if not all(ppos[id(s)] > ppos[id(loop)] for s in b_enqs):
                    continue  # qb fed before the qa loop: consumer unblocks
                if min(cpos[id(s)] for s in b_deqs) > min(cpos[id(s)] for s in a_deqs):
                    continue  # consumer drains qa first: compatible order
                burst = body_effects([loop]).get(qa.qid, _QEffect()).enq
                if burst is not TOP and burst <= qa.capacity:
                    continue  # the queue absorbs the whole burst: feasible
                diags.add(
                    "PHL203",
                    "%s enqueues %s token(s) to queue %d before first feeding "
                    "queue %d, but %s blocks on queue %d first and queue %d "
                    "only holds %d: both sides stall once the queue fills"
                    % (
                        _stage_label(producer),
                        _c_fmt(burst),
                        qa.qid,
                        qb.qid,
                        _stage_label(consumer),
                        qb.qid,
                        qa.qid,
                        qa.capacity,
                    ),
                    span=_first_span(a_enqs),
                    where=_stage_label(producer),
                )


# ---------------------------------------------------------------------------
# Cross-stage race detection (PHL301-PHL304)


def _stage_loads(stage_index: _StageIndex) -> dict[Any, list[Any]]:
    """A stage's load sites (its reads, prefetches left out) by alias class."""
    loads = {}
    for cls, sites in stage_index.reads.items():
        real_loads = [s for s in sites if s.kind == "load"]
        if real_loads:
            loads[cls] = real_loads
    return loads


def classify_cross_stage(pipeline: Any) -> dict[Any, str]:
    """Classify every alias class accessed by >= 2 stages.

    Returns ``{class: verdict}`` with verdicts ``read-only`` (no stage
    writes), ``single-writer`` (one stage writes, others at most prefetch),
    or ``conflicting`` (a racing access pattern the checks below flag).
    Restrict-qualified arrays are their own class (the pointer accessed
    through, per :mod:`repro.analysis.alias`); arrays *without* restrict
    share one may-alias class.
    """
    readers: dict[Any, set[Any]] = {}
    writers: dict[Any, set[Any]] = {}
    loaders: dict[Any, set[Any]] = {}
    for stage in pipeline.stages:
        info = _StageIndex(stage)
        for cls in info.reads:
            readers.setdefault(_merged_class(pipeline, cls), set()).add(stage.index)
        for cls in _stage_loads(info):
            loaders.setdefault(_merged_class(pipeline, cls), set()).add(stage.index)
        for cls in info.writes:
            writers.setdefault(_merged_class(pipeline, cls), set()).add(stage.index)

    verdicts = {}
    for cls in set(readers) | set(writers):
        touching = readers.get(cls, set()) | writers.get(cls, set())
        if len(touching) < 2:
            continue
        wstages = writers.get(cls, set())
        if not wstages:
            verdicts[cls] = READ_ONLY
        elif len(wstages) == 1 and not (loaders.get(cls, set()) - wstages):
            verdicts[cls] = SINGLE_WRITER
        else:
            verdicts[cls] = CONFLICTING
    return verdicts


def _merged_class(pipeline: Any, cls: Any) -> Any:
    """Map a non-restrict array's class into the shared may-alias class."""
    if cls.startswith("@"):
        decl = pipeline.arrays.get(cls[1:])
        if decl is not None and not decl.restrict:
            return "<may-alias>"
    return cls


def check_races(
    pipeline: Any, diags: DiagnosticSet, index: Optional[dict[int, _StageIndex]] = None
) -> None:
    """Flag write-write and unordered read-write pairs across stages."""
    if index is None:
        index = _index_stages(pipeline)
    write_sites: dict[Any, dict[Any, list[Any]]] = {}  # merged class -> {stage index -> [stmts]}
    load_sites: dict[Any, dict[Any, list[Any]]] = {}
    class_names: dict[Any, set[Any]] = {}  # merged class -> set of source-level class names
    for stage in pipeline.stages:
        info = index[id(stage)]
        for cls, sites in info.writes.items():
            merged = _merged_class(pipeline, cls)
            write_sites.setdefault(merged, {}).setdefault(stage.index, []).extend(sites)
            class_names.setdefault(merged, set()).add(cls)
        for cls, sites in _stage_loads(info).items():
            merged = _merged_class(pipeline, cls)
            load_sites.setdefault(merged, {}).setdefault(stage.index, []).extend(sites)
            class_names.setdefault(merged, set()).add(cls)

    for cls, per_stage in sorted(write_sites.items()):
        names = " / ".join(sorted(class_names.get(cls, {cls})))
        wstages = sorted(per_stage)
        if len(wstages) >= 2:
            span = _first_span(
                s for idx in wstages for s in per_stage[idx]
            )
            diags.add(
                "PHL301",
                "array %s is written by stages %s: concurrent pipeline "
                "stages give no write ordering (write-write race)"
                % (names, ", ".join(str(i) for i in wstages)),
                span=span,
                where="array %s" % names,
            )
            continue
        writer = wstages[0]
        foreign_loads = {
            idx: sites for idx, sites in load_sites.get(cls, {}).items() if idx != writer
        }
        for idx, sites in sorted(foreign_loads.items()):
            stage = pipeline.stage(idx)
            diags.add(
                "PHL302",
                "array %s is written by stage %d but loaded by %s: the load "
                "may observe stale data (the paper's Fig. 4 race — other "
                "stages may only prefetch a written array)"
                % (names, writer, _stage_label(stage)),
                span=_first_span(sites),
                where=_stage_label(stage),
            )

    _check_shared_cells(pipeline, diags, index)


def _check_shared_cells(
    pipeline: Any, diags: DiagnosticSet, index: dict[int, _StageIndex]
) -> None:
    """PHL304: shared scalar cells must cross stages only over a barrier."""
    writers: dict[Any, dict[Any, Any]] = {}
    readers: dict[Any, dict[Any, Any]] = {}
    has_barrier: dict[Any, bool] = {}
    for stage in pipeline.stages:
        stage_index = index[id(stage)]
        has_barrier[stage.index] = stage_index.has_barrier
        for stmt in stage_index.shared:
            if stmt.kind == "write_shared":
                writers.setdefault(stmt.var, {}).setdefault(stage.index, stmt)
            elif stmt.kind == "read_shared":
                readers.setdefault(stmt.var, {}).setdefault(stage.index, stmt)
    for var, wstages in sorted(writers.items()):
        for ridx, rstmt in sorted(readers.get(var, {}).items()):
            for widx, wstmt in sorted(wstages.items()):
                if widx == ridx:
                    continue
                if has_barrier.get(widx) and has_barrier.get(ridx):
                    continue  # phase protocol: coherent across the barrier
                diags.add(
                    "PHL304",
                    "shared cell %r is written by stage %d and read by stage "
                    "%d without a barrier between them: shared cells are "
                    "only coherent across a barrier" % (var, widx, ridx),
                    span=rstmt.span or wstmt.span,
                    where="shared %s" % var,
                )


# ---------------------------------------------------------------------------
# Replication commutativity lint (PHL303)


def check_commutativity(
    bodies: Iterable[tuple[str, Any]], diags: DiagnosticSet, where: Optional[str] = None
) -> None:
    """Lint read-modify-write reductions for commutativity.

    ``bodies`` is an iterable of (label, body). Under replication, an
    update ``a[i] = a[i] OP v`` executes in whatever order elements arrive
    at their owner replica; OP must be commutative+associative for the
    result to be order-independent. Atomic RMW ops are restricted to
    commutative ops by construction; this catches the load/op/store form.
    """
    for label, body in bodies:
        defs: dict[Any, list[Any]] = {}
        for stmt in walk(body):
            for reg in stmt.defs():
                defs.setdefault(reg, []).append(stmt)
        loaded_from = {}  # reg -> array class it was loaded from (single def)
        for reg, stmts_ in defs.items():
            if len(stmts_) == 1 and stmts_[0].kind == "load":
                loaded_from[reg] = access_class(stmts_[0].array)
        for stmt in walk(body):
            if stmt.kind != "store":
                continue
            value = stmt.value
            vdefs = defs.get(value, [])
            if len(vdefs) != 1 or vdefs[0].kind != "assign":
                continue
            op_stmt = vdefs[0]
            if op_stmt.op not in NON_COMMUTATIVE:
                continue
            cls = access_class(stmt.array)
            if any(loaded_from.get(arg) == cls for arg in op_stmt.args):
                diags.add(
                    "PHL303",
                    "replicated reduction on %s uses non-commutative op "
                    "'%s': replicas apply updates in arrival order, so the "
                    "result is schedule-dependent" % (cls, op_stmt.op),
                    span=stmt.span or op_stmt.span,
                    where=where or label,
                )


def check_replication(pipeline: Any, diags: DiagnosticSet) -> None:
    if not pipeline.meta.get("replicate"):
        return
    check_commutativity(
        ((_stage_label(s), s.body) for s in pipeline.stages), diags
    )


# ---------------------------------------------------------------------------
# Entry points


def sanitize_pipeline(pipeline: Any, diags: Optional[DiagnosticSet] = None) -> DiagnosticSet:
    """Run the full static safety suite on a pipeline.

    Returns a :class:`~repro.diag.DiagnosticSet`; callers decide whether
    errors abort (the compiler does) or are reported (the lint CLI does).
    """
    if diags is None:
        diags = DiagnosticSet()
    index = _index_stages(pipeline)
    check_token_balance(pipeline, diags, index)
    check_deadlock(pipeline, diags, index)
    check_races(pipeline, diags, index)
    check_replication(pipeline, diags)
    return diags


def sanitize_function(function: Any, diags: Optional[DiagnosticSet] = None) -> DiagnosticSet:
    """Pre-pipeline lint of a serial Function (replication commutativity)."""
    if diags is None:
        diags = DiagnosticSet()
    if function.pragmas.get("replicate"):
        check_commutativity(
            [("func %s" % function.name, function.body)], diags
        )
    return diags


def lint_source(
    source: str,
    name: Optional[str] = None,
    options: Optional[Any] = None,
    file: Optional[str] = None,
    verify_each: bool = False,
    perf: bool = False,
) -> DiagnosticSet:
    """Lint mini-C source end to end; never raises on findings.

    Parses, lowers, compiles, and sanitizes, converting every toolchain
    failure (parse, lowering, verification, compile) into its wrapper
    diagnostic. ``perf`` additionally runs the static performance model
    (:mod:`repro.analysis.perfmodel`) over the compiled pipeline and
    appends its PHL4xx advisories. Returns a
    :class:`~repro.diag.DiagnosticSet`.
    """
    # Imported lazily: analysis modules must not depend on repro.core at
    # import time (core's passes import repro.analysis).
    from ..core.compiler import CompileOptions, compile_function
    from ..diag import from_exception
    from ..errors import CompileError, IRVerificationError, LoweringError, ParseError, SanitizeError
    from ..frontend.lowering import compile_source

    try:
        function = compile_source(source, name=name)
    except (ParseError, LoweringError, IRVerificationError) as exc:
        return from_exception(exc, file=file)

    diags = sanitize_function(function)
    options = options or CompileOptions()
    if verify_each:
        options = options.replace(verify_each=True)
    try:
        pipeline = compile_function(function, options=options)
    except SanitizeError as exc:
        return diags.extend(exc.diagnostics)
    except IRVerificationError as exc:
        return diags.extend(from_exception(exc, file=file))
    except CompileError as exc:
        return diags.extend(from_exception(exc, file=file))

    sanitize_pipeline(pipeline, diags)
    if perf:
        from .perfmodel import perf_advisories

        perf_advisories(pipeline, diags=diags)
    return diags
