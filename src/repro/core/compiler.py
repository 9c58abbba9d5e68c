"""The Phloem compiler driver.

``compile_function`` turns a serial :class:`~repro.ir.Function` into a
:class:`~repro.ir.PipelineProgram` by running the paper's passes in order:

1. decouple + add queues (Sec. IV-B pass 1, always on),
2. recompute (pass 2),
3. use control values (pass 4),
4. inter-stage dead code elimination (pass 6),
5. control-value handlers (pass 5),
6. accelerate accesses with RAs + chaining (pass 3).

RA offloading runs last because chaining feeds on the streamlined queue
protocol the control-value passes leave behind; the *pass set* is exposed
so the Fig. 6 ablation can reproduce each intermediate configuration.
"""

from ..analysis.sanitize import sanitize_pipeline
from ..frontend.lowering import compile_source
from ..ir.stmts import remove
from ..ir.verifier import verify_pipeline
from ..obs import log
from .accelerate import apply_reference_accelerators
from .cleanup import cleanup_stage
from .ctrl import apply_control_handlers, apply_control_values, apply_interstage_dce
from .decouple import decouple_function, drop_trivial_stages
from .options import ALL_PASSES, CompileOptions, pipeline_summary  # noqa: F401 - re-exported
from .recompute import apply_recompute


def _remove_dead_queues(pipeline):
    """Delete point-to-point queues whose dequeued value is never used.

    Each round walks every stage once, for every queue's operations and the
    registers each stage reads. A removal in a round only takes uses away,
    so a queue it frees is found the next round: the rounds stop where
    re-walking per queue did.
    """
    changed = True
    while changed:
        changed = False
        ops = {}  # qid -> [(stage, stmt)], in stage and all_stmts order
        reads = {}  # id(stage) -> registers its statements read
        for stage in pipeline.stages:
            regs = reads[id(stage)] = set()
            for stmt in stage.all_stmts():
                regs.update(stmt.uses())
                qid = getattr(stmt, "queue", None)
                if qid is not None:
                    ops.setdefault(qid, []).append((stage, stmt))
        for qid in list(pipeline.queues):
            enqs, deqs, others = [], [], []
            for stage, stmt in ops.get(qid, ()):
                if stmt.kind == "enq":
                    enqs.append((stage, stmt))
                elif stmt.kind == "deq":
                    deqs.append((stage, stmt))
                else:
                    others.append((stage, stmt))
            if others or len(enqs) != 1 or len(deqs) != 1:
                continue
            cons_stage, deq = deqs[0]
            if deq.dst in reads[id(cons_stage)]:
                continue
            remove(cons_stage.body, [deq])
            remove(enqs[0][0].body, [enqs[0][1]])
            del pipeline.queues[qid]
            changed = True
    return pipeline


def compile_function(function, options=None, profiler=None):
    """Compile a serial function into a pipeline.

    ``options`` is a :class:`CompileOptions` (default: ``CompileOptions()``).
    Its ``point_indices`` selects specific ranked decoupling points (the
    profile-guided search drives this); by default the static cost model's
    top choices are used.

    ``profiler`` (a :class:`repro.obs.PassProfiler`) records per-pass wall
    time and IR deltas; it is observation only and never part of the
    compiled-pipeline cache key.
    """
    options = options or CompileOptions()
    passes = options.passes

    if profiler is None:
        def run(name, subject, fn, result_of=None):
            return fn()
    else:
        run = profiler.measure

    def checkpoint(after):
        """--verify-each: structural + safety verification between passes."""
        if not options.verify_each:
            return
        verify_pipeline(pipeline)
        sanitize_pipeline(pipeline).raise_if_errors(
            "static analysis failed after pass '%s'" % after
        )

    pipeline, _points = run(
        "decouple",
        function,
        lambda: decouple_function(
            function,
            options.num_stages - 1,
            capacity=options.queue_capacity,
            point_indices=options.point_indices,
            profiler=profiler,
        ),
        result_of=lambda r: r[0],
    )

    checkpoint("decouple")

    if "recompute" in passes:
        run("recompute", pipeline, lambda: apply_recompute(pipeline))
        checkpoint("recompute")
    if "cv" in passes:
        run("cv", pipeline, lambda: apply_control_values(pipeline))
        checkpoint("cv")
    if "dce" in passes:
        run("dce", pipeline, lambda: apply_interstage_dce(pipeline))
        checkpoint("dce")
    if "handlers" in passes:
        run("handlers", pipeline, lambda: apply_control_handlers(pipeline))
        checkpoint("handlers")
    if "ra" in passes:
        def apply_ra():
            # Clean first: the chain matcher wants copy-propagated plumbing.
            for stage in pipeline.stages:
                cleanup_stage(stage)
            apply_reference_accelerators(
                pipeline, max_ras=options.max_ras, capacity=options.queue_capacity
            )

        run("ra", pipeline, apply_ra)
        checkpoint("ra")

    def finalize():
        _remove_dead_queues(pipeline)
        for stage in pipeline.stages:
            cleanup_stage(stage)
        drop_trivial_stages(pipeline)

    run("finalize", pipeline, finalize)
    pipeline.meta["requested_stages"] = options.num_stages
    pipeline.meta["pass_set"] = list(passes)
    if function.pragmas.get("replicate"):
        # `#pragma replicate N`: record the request; the caller materializes
        # the replicas with core.replicate.replicate_pipeline (Sec. IV-C).
        pipeline.meta["replicate"] = function.pragmas["replicate"]
    verify_pipeline(pipeline, max_queues=options.max_queues, max_ras=options.max_ras)
    diags = sanitize_pipeline(pipeline)
    for warning in diags.warnings():
        log("compile %s: %s", pipeline.name, warning.render())
    diags.raise_if_errors("pipeline %s failed static safety analysis" % pipeline.name)
    return pipeline


def compile_c(source, name=None, options=None, profiler=None):
    """Parse mini-C source and compile the (named) kernel into a pipeline."""
    function = compile_source(source, name=name)
    return compile_function(function, options=options, profiler=profiler)

