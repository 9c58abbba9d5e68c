"""Automatic pipeline replication + distribution (paper Sec. IV-C).

``replicate_pipeline`` takes a compiled pipeline whose final stage consumes
one flat, control-value-terminated element stream (the shape the full pass
stack produces for BFS) and builds R replicas with the data-centric
distribute step:

* the stage feeding the final stage routes each element to its *owner*
  replica (``owner(v) = min(v / chunk, R-1)`` — "inspecting bits of the
  neighbor id"), so every write in the final stage is owner-exclusive;
* end-of-phase control values broadcast to all replicas, and the final
  stage's handler counts R of them before ending its phase;
* per-phase shared scalars split into per-replica cells: each stage reads
  its own replica's value for loop bounds and sums all replicas' values
  for the global phase-termination test.

Pipelines without the flat shape (e.g. CC's paired vertex+neighbor
streams) are rejected — for those the structured builders in
``repro.workloads.replicated`` construct the replicated form directly.
"""

from ..errors import CompileError
from ..ir import stmts as S
from ..ir.stmts import walk

#: Scalar parameters replication adds to the pipeline.
REPLICATE_SCALARS = ["replicas", "chunk", "total_init"]


def _find_flat_stream(pipeline):
    """The queue whose consumer is the last stage, dequeued at the head of
    a control-terminated loop with a handler attached."""
    last = pipeline.stages[-1]
    # Flatness requires the final stage to consume *only* the stream being
    # distributed: a second incoming queue (e.g. CC's per-vertex labels)
    # would desynchronize once elements are re-routed by owner.
    incoming = {s.queue for s in last.all_stmts() if s.kind in ("deq", "peek")}
    for qid, handler in last.handlers.items():
        if pipeline.consumer_stage(qid) is not last:
            continue
        if incoming != {qid}:
            continue
        for stmt in walk(last.body):
            if stmt.kind == "loop" and stmt.body and stmt.body[0].kind == "deq" and stmt.body[0].queue == qid:
                return qid, stmt, handler
    raise CompileError(
        "pipeline %s has no flat distributable stream into its final stage"
        % pipeline.name
    )


def _rewrite_producer(pipeline, qid):
    """Route enqueues by owner; broadcast control values."""
    producer = pipeline.producer_stage(qid)
    if producer is None:
        raise CompileError("distributed queue %d is fed by an RA" % qid)

    def rewrite(body):
        out = []
        for stmt in body:
            for block in stmt.blocks():
                block[:] = rewrite(block)
            if stmt.kind == "enq" and stmt.queue == qid:
                out.append(S.Assign("%repl_d0", "div", [stmt.value, "chunk"]))
                out.append(S.Assign("%repl_last", "sub", ["replicas", 1]))
                out.append(S.Assign("%repl_dest", "min", ["%repl_d0", "%repl_last"]))
                out.append(S.EnqDist(qid, stmt.value, "%repl_dest"))
            elif stmt.kind == "enq_ctrl" and stmt.queue == qid:
                out.append(S.EnqCtrlDist(qid, stmt.ctrl))
            else:
                out.append(stmt)
        return out

    producer.body[:] = rewrite(producer.body)
    handlers = {}
    for hqid, handler in producer.handlers.items():
        handlers[hqid] = rewrite(handler)
    producer.handlers = handlers


def _rewrite_consumer(pipeline, qid, loop, handler):
    """Counting handler: the phase ends after one marker per replica."""
    last = pipeline.stages[-1]
    if not (len(handler) == 1 and handler[0].kind == "break" and handler[0].levels == 1):
        raise CompileError("final-stage handler is not a simple phase break")
    last.handlers[qid] = [
        S.Assign("%repl_dones", "add", ["%repl_dones", 1]),
        S.Assign("%repl_all", "ge", ["%repl_dones", "replicas"]),
        S.If("%repl_all", [S.Break(1)], []),
    ]

    # Reset the counter right before the stream loop, once per phase.
    def insert_reset(body):
        for index, stmt in enumerate(body):
            if stmt is loop:
                body.insert(index, S.Assign("%repl_dones", "mov", [0]))
                return True
            for block in stmt.blocks():
                if insert_reset(block):
                    return True
        return False

    if not insert_reset(last.body):
        raise CompileError("could not anchor the marker counter")


def _rewrite_shared(pipeline, rid, replicas):
    """Per-replica shared cells + global totals for phase termination."""
    if not pipeline.shared_vars:
        return
    renames = {var: "%s@%d" % (var, rid) for var in sorted(pipeline.shared_vars)}

    for stage in pipeline.stages:
        for stmt in walk(stage.body):
            if stmt.kind == "write_shared" and stmt.var in renames:
                stmt.var = renames[stmt.var]

        # Each ReadShared keeps feeding the local value, and a global total
        # accumulates alongside for the phase condition.
        def rewrite(body):
            out = []
            for stmt in body:
                for block in stmt.blocks():
                    block[:] = rewrite(block)
                if stmt.kind == "read_shared" and stmt.var in renames:
                    var = stmt.var
                    out.append(S.ReadShared(stmt.dst, renames[var]))
                    out.append(S.Assign("%repl_total", "mov", [0]))
                    for other in range(replicas):
                        tmp = "%%repl_r%d" % other
                        out.append(S.ReadShared(tmp, "%s@%d" % (var, other)))
                        out.append(S.Assign("%repl_total", "add", ["%repl_total", tmp]))
                else:
                    out.append(stmt)
            return out

        stage.body[:] = rewrite(stage.body)

        # Phase condition: test the *global* total. The compiled shape is
        # `c = gt(fs, 0); nc = not(c); if (nc) break` at the phase-loop head.
        phase_loops = [s for s in stage.body if s.kind == "loop"]
        for ploop in phase_loops:
            if ploop.body and ploop.body[0].kind == "assign" and ploop.body[0].op in ("gt", "le"):
                cond = ploop.body[0]
                if cond.args[1] == 0:
                    cond.args[0] = "%repl_total"
        # Seed the total before the first phase-condition evaluation.
        stage.body.insert(0, S.Assign("%repl_total", "mov", ["total_init"]))

    pipeline.shared_vars = {
        "%s@%d" % (var, r) for var in renames for r in range(replicas)
    }


def replicate_pipeline(pipeline, replicas):
    """Build ``replicas`` distributing clones of a flat-stream pipeline."""
    if replicas < 1:
        raise CompileError("replicas must be >= 1")
    qid, _, _ = _find_flat_stream(pipeline)  # validate shape once

    clones = []
    for rid in range(replicas):
        clone = pipeline.clone()
        clone.name = "%s_repl%d" % (pipeline.name, rid)
        qid, loop, handler = _find_flat_stream(clone)
        _rewrite_producer(clone, qid)
        _rewrite_consumer(clone, qid, loop, handler)
        _rewrite_shared(clone, rid, replicas)
        for scalar in REPLICATE_SCALARS:
            if scalar not in clone.scalar_params:
                clone.scalar_params.append(scalar)
        clone.meta["replicated"] = replicas
        clone.meta["distributed_queue"] = qid
        clones.append(clone)
    return clones
