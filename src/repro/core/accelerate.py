"""Pass 3 — Accelerate accesses with reference accelerators (paper Sec. IV-B).

Two rewrite patterns offload a stage's loads to Pipette RAs:

* **indirect**: ``v = load @arr[idx]; enq(q, v)`` with ``v`` otherwise
  unused becomes ``enq(ra_in, idx)`` plus an INDIRECT RA on ``arr`` feeding
  ``q``. Consecutive rewrites against the same array and output queue share
  one RA (that is how ``nodes[v]``/``nodes[v+1]`` ride a single engine).
* **scan**: a loop that is exactly ``for (e = lo; e < hi; e++) { v = load
  @arr[e]; enq(q, v); }`` becomes ``enq(ra_in, lo); enq(ra_in, hi)`` plus a
  SCAN RA.

After rewriting, control values the stage still sends into the offloaded
queue are retargeted to the RA's input (RAs forward control values), and
stages reduced to pure pass-throughs are chained away: an RA fed only by
``x = deq(q_up); enq(ra_in, x)`` pairs plugs directly into ``q_up``,
yielding the paper's chained RAs, with the empty middle stage deleted.
"""

from ..analysis.defs import DefUse
from ..ir import stmts as S
from ..ir.program import MAX_RAS, QUEUE_DEPTH, RA_INDIRECT, RA_SCAN, QueueSpec, RASpec
from ..ir.stmts import find_container, loop_chain, remove, walk
from ..ir.values import is_array_symbol
from .cleanup import cleanup_stage
from .decouple import drop_trivial_stages


class _RABuilder:
    def __init__(self, pipeline, capacity):
        self.pipeline = pipeline
        self.capacity = capacity
        self.next_raid = 0
        self.next_qid = (max(pipeline.queues) + 1) if pipeline.queues else 0
        self.by_target = {}  # (array, out_qid) -> RASpec

    def get(self, array, out_qid, mode, stage):
        key = (array, out_qid, mode)
        spec = self.by_target.get(key)
        if spec is not None:
            return spec
        if self.next_raid >= MAX_RAS:
            return None
        in_qid = self.next_qid
        self.next_qid += 1
        spec = RASpec(self.next_raid, mode, array, in_qid, out_qid)
        self.next_raid += 1
        self.by_target[key] = spec
        self.pipeline.ras.append(spec)
        self.pipeline.queues[in_qid] = QueueSpec(
            in_qid, ("stage", stage.index), ("ra", spec.raid), self.capacity, "ra%d.in" % spec.raid
        )
        out_spec = self.pipeline.queues[out_qid]
        out_spec.producer = ("ra", spec.raid)
        return spec


def apply_reference_accelerators(pipeline, capacity=QUEUE_DEPTH):
    """Offload qualifying loads to at most ``MAX_RAS`` RAs; chain and drop emptied stages."""
    builder = _RABuilder(pipeline, capacity)
    changed = False
    for stage in pipeline.stages:
        changed |= _rewrite_stage(builder, pipeline, stage)
    if changed:
        _chain_ras(pipeline)
        for stage in pipeline.stages:
            cleanup_stage(stage)
        drop_trivial_stages(pipeline)
        pipeline.meta.setdefault("passes", []).append("ra")
    return pipeline


def _rewrite_stage(builder, pipeline, stage):
    """Offload a stage's loads queue by queue.

    A queue is offloadable only when *every* enqueue the stage performs
    into it is covered by pattern instances against one array in one mode —
    a partially-offloaded queue would interleave loaded values with raw
    data and corrupt the stream.
    """
    instances = _collect_instances(pipeline, stage)
    by_queue = {}
    for inst in instances:
        by_queue.setdefault(inst["queue"], []).append(inst)

    changed = False
    for qid, insts in sorted(by_queue.items()):
        total_enqs = [
            s for s in walk(stage.body) if s.kind == "enq" and s.queue == qid
        ]
        covered = set()
        for inst in insts:
            covered.update(id(s) for s in inst["covers"])
        if any(id(s) not in covered for s in total_enqs):
            continue
        arrays = {inst["array"] for inst in insts}
        modes = {inst["mode"] for inst in insts}
        if len(arrays) != 1 or len(modes) != 1:
            continue
        spec = builder.get(arrays.pop(), qid, modes.pop(), stage)
        if spec is None:
            continue  # out of RAs
        for inst in insts:
            _apply_instance(stage.body, inst, spec)
        # Control values the stage still sends into the offloaded queue now
        # enter at the RA input; the engine forwards them.
        for root in [stage.body] + list(stage.handlers.values()):
            for stmt in walk(root):
                if stmt.kind == "enq_ctrl" and stmt.queue == qid:
                    stmt.queue = spec.in_queue
        changed = True
    return changed


def _collect_instances(pipeline, stage):
    """Find offloadable patterns without mutating anything."""
    out = []
    du = None  # the stage's DefUse, built at the first candidate

    def used_once(reg):
        nonlocal du
        if du is None:
            du = DefUse(stage.body, stage.handlers.values())
        return du.use_count(reg) == 1

    def visit(body):
        for index, stmt in enumerate(body):
            # Scan: a loop that only streams one array into one queue. A
            # matched scan subsumes the indirect pair inside it, so the
            # loop body is not visited separately.
            if (
                stmt.kind == "for"
                and stmt.step == 1
                and len(stmt.body) == 2
                and stmt.body[0].kind == "load"
                and stmt.body[1].kind == "enq"
                and is_array_symbol(stmt.body[0].array)
                and stmt.body[0].index == stmt.var
                and stmt.body[1].value == stmt.body[0].dst
                and used_once(stmt.body[0].dst)
                and pipeline.producer_stage(stmt.body[1].queue) is stage
            ):
                out.append(
                    {
                        "mode": RA_SCAN,
                        "array": stmt.body[0].array,
                        "queue": stmt.body[1].queue,
                        "covers": [stmt.body[1]],
                        "anchor": stmt,
                        "body": body,
                    }
                )
                continue
            for block in stmt.blocks():
                visit(block)
            # Indirect: a load immediately and solely forwarded.
            if (
                stmt.kind == "load"
                and is_array_symbol(stmt.array)
                and index + 1 < len(body)
                and body[index + 1].kind == "enq"
                and body[index + 1].value == stmt.dst
                and used_once(stmt.dst)
                and pipeline.producer_stage(body[index + 1].queue) is stage
            ):
                out.append(
                    {
                        "mode": RA_INDIRECT,
                        "array": stmt.array,
                        "queue": body[index + 1].queue,
                        "covers": [body[index + 1]],
                        "anchor": stmt,
                        "body": body,
                    }
                )

    visit(stage.body)
    return out


def _apply_instance(body, inst, spec):
    anchor = inst["anchor"]
    holder = inst["body"]
    position = holder.index(anchor)
    if inst["mode"] == RA_SCAN:
        holder[position : position + 1] = [
            S.Enq(spec.in_queue, anchor.lo),
            S.Enq(spec.in_queue, anchor.hi),
        ]
    else:
        holder[position : position + 2] = [S.Enq(spec.in_queue, anchor.index)]


def _chain_ras(pipeline):
    """Remove pass-through plumbing: ``x = deq(q_up); enq(ra_in, x)``.

    When a stage's only use of an upstream queue is to feed an RA input in
    order, the RA can consume the upstream queue directly (a chained RA).
    """
    for stage in pipeline.stages:
        changed = True
        while changed:
            changed = False
            pairs = _passthrough_pairs(stage, pipeline)
            for q_up, ra_in, stmts in pairs:
                in_spec = pipeline.queues[ra_in]
                if in_spec.consumer[0] != "ra":
                    continue
                if q_up in stage.handlers:
                    continue
                ra = pipeline.ra(in_spec.consumer[1])
                # Record control-value positions relative to the dequeues
                # *before* mutating the body: a marker at the same loop
                # depth as the dequeues fires once per pass-through unit, a
                # marker one level out fires once per enclosing iteration.
                deq_stmt = next(s for s in stmts if s.kind == "deq")
                deq_depth = len(loop_chain(stage.body, deq_stmt) or ())
                ctrls = [
                    (s, deq_depth - len(loop_chain(stage.body, s) or ()))
                    for s in walk(stage.body)
                    if s.kind == "enq_ctrl" and s.queue == ra_in
                ]
                # Rewire: the RA consumes the upstream queue directly.
                up_spec = pipeline.queues[q_up]
                up_spec.consumer = ("ra", ra.raid)
                ra.in_queue = q_up
                remove(stage.body, stmts)
                del pipeline.queues[ra_in]
                # Control values this stage injected into the (now deleted)
                # RA input must originate upstream instead: the upstream
                # producer sends them into q_up and the chain forwards them.
                _relocate_ctrl(pipeline, stage, ctrls, q_up)
                changed = True
                break


def _relocate_ctrl(pipeline, stage, ctrls, q_up):
    """Move control enqueues into q_up's producer, preserving multiplicity.

    ``ctrls`` is a list of ``(stmt, k)`` where ``k`` is how many loop
    levels separated the marker from the pass-through dequeues: ``k == 0``
    markers fired once per unit (e.g. per-vertex NEXT) and are re-emitted
    right after the upstream enqueues; ``k == 1`` markers fired once per
    enclosing iteration and land after the upstream's innermost enqueue
    loop, and so on.
    """
    if not ctrls:
        return
    remove(stage.body, [s for s, _ in ctrls])
    # Walk up through any RA chain: control values enter at the first
    # stage-produced queue and are forwarded through the engines.
    upstream, q_up, _ras = pipeline.upstream(q_up)
    if upstream is None:
        return
    enqs = [s for s in walk(upstream.body) if s.kind == "enq" and s.queue == q_up]
    if not enqs:
        return
    last_enq = enqs[-1]
    chain = loop_chain(upstream.body, last_enq) or ()
    for ctrl, k in ctrls:
        moved = S.EnqCtrl(q_up, ctrl.ctrl)
        if k <= 0:
            container = find_container(upstream.body, last_enq)
            container.insert(container.index(last_enq) + 1, moved)
        else:
            depth = min(k, len(chain))
            anchor = chain[-depth] if depth else None
            if anchor is None:
                upstream.body.append(moved)
            else:
                container = find_container(upstream.body, anchor)
                container.insert(container.index(anchor) + 1, moved)


def _passthrough_pairs(stage, pipeline):
    """Find (upstream_queue, ra_input_queue, stmts) fully-forwarded routes."""
    routes = {}
    blockers = set()
    reg_sources = {}
    for stmt in walk(stage.body):
        if stmt.kind == "deq":
            reg_sources[stmt.dst] = (stmt.queue, stmt)
        elif stmt.kind == "enq":
            src = reg_sources.get(stmt.value)
            if src is None:
                blockers.add(stmt.queue)
                continue
            q_up, deq_stmt = src
            routes.setdefault((q_up, stmt.queue), []).extend([deq_stmt, stmt])
        elif stmt.kind in ("enq_ctrl", "peek"):
            pass
    result = []
    for (q_up, q_down), stmts in routes.items():
        if q_down in blockers:
            continue
        # Pass-throughs inside a control-value-terminated Loop would leave
        # an empty infinite loop behind; only chain For-level plumbing.
        if any(
            (lambda ch: ch and ch[-1].kind == "loop")(loop_chain(stage.body, s))
            for s in stmts
            if s.kind == "deq"
        ):
            continue
        # Every deq of q_up must feed q_down and nothing else; every enq of
        # q_down must come from q_up.
        deqs = [s for s in walk(stage.body) if s.kind == "deq" and s.queue == q_up]
        enqs = [s for s in walk(stage.body) if s.kind == "enq" and s.queue == q_down]
        involved = {id(s) for s in stmts}
        if any(id(s) not in involved for s in deqs + enqs):
            continue
        regs = {s.dst for s in deqs}
        extra_uses = 0
        for stmt in stage.all_stmts():
            if stmt.kind == "enq" and stmt.queue == q_down:
                continue
            extra_uses += sum(1 for r in stmt.uses() if r in regs)
        if extra_uses:
            continue
        result.append((q_up, q_down, stmts))
    return result
