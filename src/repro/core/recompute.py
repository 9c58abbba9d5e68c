"""Pass 2 — Recompute (paper Sec. IV-B).

Some queued values "change infrequently, or can be determined without
communication from another stage"; rematerializing them in the consumer is
cheaper than a queue. This pass finds forward queues whose value is a
single scalar operation over operands the consumer already has (constants,
cloned pure scalars, other values it dequeues) and replaces the dequeue
with the recomputation, deleting the queue.
"""

from ..analysis.defs import DefUse
from ..ir import stmts as S
from ..ir.stmts import find_container, remove


def _queue_ops(pipeline):
    """qid -> {"enq": [(stage, stmt)], "deq": [(stage, stmt)]}."""
    table = {}
    for stage in pipeline.stages:
        for stmt in stage.all_stmts():
            if stmt.kind == "enq":
                table.setdefault(stmt.queue, {}).setdefault("enq", []).append((stage, stmt))
            elif stmt.kind == "deq":
                table.setdefault(stmt.queue, {}).setdefault("deq", []).append((stage, stmt))
            elif stmt.kind in ("enq_ctrl", "peek", "enq_dist", "enq_ctrl_dist"):
                table.setdefault(stmt.queue, {}).setdefault("other", []).append((stage, stmt))
    return table


def apply_recompute(pipeline):
    """Run the recompute pass over every producer/consumer queue pair."""
    table = _queue_ops(pipeline)
    defuse = {}  # stage index -> DefUse of its body; cleared by every rewrite

    def defs_of(stage):
        if stage.index not in defuse:
            defuse[stage.index] = DefUse(stage.body)
        return defuse[stage.index].defs

    removed = []
    for qid, ops in sorted(table.items()):
        if "other" in ops or len(ops.get("enq", [])) != 1 or len(ops.get("deq", [])) != 1:
            continue
        prod_stage, enq = ops["enq"][0]
        cons_stage, deq = ops["deq"][0]
        reg = enq.value
        if type(reg) is not str:
            continue
        defining = defs_of(prod_stage).get(reg, [])
        if len(defining) != 1 or defining[0].kind != "assign":
            continue
        definition = defining[0]
        cons_defs = defs_of(cons_stage)
        # Every operand must already exist in the consumer under the same
        # name (cloned pure scalars and dequeued values keep their names).
        available = True
        for arg in definition.args:
            if type(arg) is str and not arg.startswith("@"):
                if arg not in cons_defs and arg not in pipeline.scalar_params:
                    available = False
                    break
        if not available:
            continue
        # Replace the consumer's Deq with the recomputation and drop the
        # producer's Enq + the queue.
        holder = find_container(cons_stage.body, deq)
        holder[holder.index(deq)] = S.Assign(deq.dst, definition.op, list(definition.args))
        remove(prod_stage.body, [enq])
        defuse.clear()
        del pipeline.queues[qid]
        removed.append(qid)
    if removed:
        pipeline.meta.setdefault("recomputed_queues", []).extend(removed)
        pipeline.meta.setdefault("passes", []).append("recompute")
    return pipeline
