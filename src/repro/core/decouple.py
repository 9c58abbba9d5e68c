"""Decoupling driver: select points, split iteratively, assemble a pipeline.

Splitting always divides the current *last* stage, and points are applied
in program order (address dependences make later points live downstream of
earlier ones). Candidates that prove untransformable (alias races, backward
value flow) are rejected and the next-ranked point takes their place, so
the driver always produces *some* legal pipeline.
"""

from ..analysis.costmodel import rank_decouple_points
from ..errors import AliasError, CompileError
from ..ir import stmts as S
from ..ir.program import QUEUE_DEPTH, PipelineProgram, QueueSpec, StageProgram
from ..ir.values import array_name, is_array_symbol
from .cleanup import cleanup_stage, stage_is_trivial
from .phases import prepare_phases
from .split import BodyFacts, split_at


def _point_name(point):
    cls = point.cls
    if is_array_symbol(cls):
        return array_name(cls)
    return cls


def _loads_present(body, point):
    present = {id(s) for s in S.walk(body)}
    return all(id(load) in present for load in point.loads)


def decouple_function(
    function, num_points, capacity=QUEUE_DEPTH, point_indices=None, profiler=None
):
    """Split ``function`` at up to ``num_points`` ranked points.

    Returns ``(pipeline, applied_points)``. The returned pipeline has had
    only the decouple + add-queues treatment (the paper's ``Q``
    configuration); later passes refine it.

    ``point_indices`` (profile-guided mode, Sec. V) selects *specific*
    candidates by rank index instead of taking the top-scored ones; an
    unsplittable selection then raises instead of falling back, so the
    search can discard the combination.
    """
    work = function.clone()
    shared_vars = prepare_phases(work, profiler=profiler)
    ranked = rank_decouple_points(work)
    rejected = set()
    # split_at never edits its input, so what every retry's first split asks
    # of work.body (its numbering, def/use table, pure registers) is asked once.
    positions = S.positions(work.body) if ranked else {}
    work_facts = BodyFacts(work.body, work.scalar_params) if ranked else None

    while True:
        if point_indices is not None:
            try:
                chosen = [ranked[i] for i in point_indices]
            except IndexError:
                raise CompileError("point index out of range (only %d candidates)" % len(ranked))
            if any(id(p) in rejected for p in chosen):
                raise CompileError("selected decoupling points are not splittable")
        else:
            chosen = [p for p in ranked if id(p) not in rejected][:num_points]
        if not chosen:
            # Nothing decouplable: a single-stage pipeline is still valid.
            stage = StageProgram(0, work.name, work.body)
            pipeline = PipelineProgram(
                work.name, [stage], [], [], work.arrays, work.scalar_params,
                shared_vars=shared_vars, intrinsics=work.intrinsics,
                meta={"points": [], "passes": ["decouple", "queues"]},
            )
            cleanup_stage(stage)
            return pipeline, []
        chosen.sort(key=lambda p: positions[id(p.loads[0])])

        bodies = [work.body]
        applied = []
        qid_counter = [0]

        def alloc_qid():
            qid_counter[0] += 1
            return qid_counter[0] - 1

        failed = None
        for point in chosen:
            # Every ranked load is in work.body: only a later body can lack one.
            first = len(bodies) == 1
            if not first and not _loads_present(bodies[-1], point):
                failed = point
                break
            try:
                outcome = split_at(
                    bodies[-1], point, alloc_qid, work.scalar_params,
                    facts=work_facts if first else None,
                )
            except (CompileError, AliasError):
                failed = point
                break
            bodies[-1] = outcome.producer_body
            bodies.append(outcome.consumer_body)
            applied.append((point, outcome))

        if failed is not None:
            rejected.add(id(failed))
            continue
        break

    stages = []
    for index, body in enumerate(bodies):
        if index < len(applied):
            name = "fetch_%s" % _point_name(applied[index][0])
        else:
            name = "update"
        stages.append(StageProgram(index, name, body))

    for stage in stages:
        cleanup_stage(stage)

    pipeline = _assemble(work, stages, capacity, shared_vars)
    pipeline.meta["points"] = [repr(p) for p, _ in applied]
    pipeline.meta["passes"] = ["decouple", "queues"]
    return pipeline, [p for p, _ in applied]


def _assemble(function, stages, capacity, shared_vars):
    """Build queue specs by scanning stage bodies, dropping unused queues."""
    producers = {}
    consumers = {}
    labels = {}
    for stage in stages:
        for stmt in stage.all_stmts():
            if stmt.kind in ("enq", "enq_ctrl", "enq_dist", "enq_ctrl_dist"):
                producers[stmt.queue] = ("stage", stage.index)
            elif stmt.kind in ("deq", "peek"):
                consumers[stmt.queue] = ("stage", stage.index)

    queues = []
    for qid in sorted(set(producers) | set(consumers)):
        if qid not in producers or qid not in consumers:
            raise CompileError(
                "queue %d has producer=%s consumer=%s after assembly"
                % (qid, producers.get(qid), consumers.get(qid))
            )
        queues.append(
            QueueSpec(qid, producers[qid], consumers[qid], capacity, labels.get(qid, ""))
        )

    return PipelineProgram(
        function.name,
        stages,
        queues,
        [],
        function.arrays,
        function.scalar_params,
        shared_vars=shared_vars,
        intrinsics=function.intrinsics,
    )


def renumber_stages(pipeline):
    """Re-index stages 0..k-1 after deletions and refresh queue endpoints."""
    mapping = {}
    for new_index, stage in enumerate(pipeline.stages):
        mapping[stage.index] = new_index
        stage.index = new_index
    for q in pipeline.queues.values():
        kind, idx = q.producer
        if kind == "stage":
            q.producer = (kind, mapping[idx])
        kind, idx = q.consumer
        if kind == "stage":
            q.consumer = (kind, mapping[idx])
    return pipeline


def drop_trivial_stages(pipeline):
    """Delete stages that no longer do observable work (post RA-chaining)."""
    keep = [s for s in pipeline.stages if not stage_is_trivial(s)]
    if len(keep) != len(pipeline.stages):
        pipeline.stages = keep
        renumber_stages(pipeline)
    return pipeline
