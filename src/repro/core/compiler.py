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

import dataclasses
from dataclasses import dataclass

from ..analysis.sanitize import sanitize_pipeline
from ..errors import CompileError
from ..frontend.lowering import compile_source
from ..ir.stmts import remove, walk
from ..ir.verifier import verify_pipeline
from ..obs import log
from .accelerate import apply_reference_accelerators
from .cleanup import cleanup_stage
from .ctrl import apply_control_handlers, apply_control_values, apply_interstage_dce
from .decouple import decouple_function, drop_trivial_stages
from .recompute import apply_recompute

#: Every optional pass, in application order. "queues" (pass 1) is implied
#: by decoupling itself and always on.
ALL_PASSES = ("recompute", "cv", "dce", "handlers", "ra")


@dataclass(frozen=True)
class CompileOptions:
    """Everything that shapes a compilation, as one hashable value.

    Pass ``options=CompileOptions(...)`` to the compiler, the autotune
    search, or the bench harness. Being frozen and canonically keyable
    (:meth:`cache_key`), an options value doubles as the second half of the
    compiled-pipeline cache key (:mod:`repro.cache`) — the first half being
    the content hash of the lowered IR.
    """

    num_stages: int = 4
    passes: tuple = ALL_PASSES
    max_ras: int = 4
    queue_capacity: int = 24
    max_queues: int = 16
    point_indices: tuple = None
    #: Re-run the IR verifier and the static safety analyzer after every
    #: pass (LLVM's -verify-each). Deliberately NOT part of cache_key():
    #: verification never changes the compiled pipeline, so a verified and
    #: an unverified compile must share cache entries.
    verify_each: bool = False

    def __post_init__(self):
        object.__setattr__(self, "passes", tuple(self.passes))
        if self.point_indices is not None:
            object.__setattr__(self, "point_indices", tuple(self.point_indices))
        if self.num_stages < 1:
            raise CompileError("num_stages must be >= 1")
        for name in self.passes:
            if name not in ALL_PASSES:
                raise CompileError("unknown pass %r" % name)

    def replace(self, **changes):
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)

    def cache_key(self):
        """Canonical one-line text of this options value (cache key half)."""
        points = (
            "-" if self.point_indices is None else ",".join(str(i) for i in self.point_indices)
        )
        return "stages=%d;passes=%s;max_ras=%d;qcap=%d;maxq=%d;points=%s" % (
            self.num_stages,
            ",".join(self.passes),
            self.max_ras,
            self.queue_capacity,
            self.max_queues,
            points,
        )


def _remove_dead_queues(pipeline):
    """Delete point-to-point queues whose dequeued value is never used."""
    changed = True
    while changed:
        changed = False
        for qid in list(pipeline.queues):
            enqs, deqs, others = [], [], []
            for stage in pipeline.stages:
                for stmt in stage.all_stmts():
                    if getattr(stmt, "queue", None) != qid:
                        continue
                    if stmt.kind == "enq":
                        enqs.append((stage, stmt))
                    elif stmt.kind == "deq":
                        deqs.append((stage, stmt))
                    else:
                        others.append((stage, stmt))
            if others or len(enqs) != 1 or len(deqs) != 1:
                continue
            cons_stage, deq = deqs[0]
            used = any(
                deq.dst in stmt.uses() for stmt in cons_stage.all_stmts() if stmt is not deq
            )
            if used:
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


def pipeline_summary(pipeline):
    """One-line description used by the evaluation harness logs."""
    stmts = sum(1 for stage in pipeline.stages for _ in walk(stage.body))
    return "%s: %d stages + %d RAs, %d queues, %d stmts" % (
        pipeline.name,
        len(pipeline.stages),
        len(pipeline.ras),
        len(pipeline.queues),
        stmts,
    )
