"""The simulated multicore machine: cores, memory, queues, RAs, threads.

:class:`Machine` assembles a simulation from one or more
:class:`~repro.ir.program.PipelineProgram` instances (replicated pipelines
pass several, one per replica), binds arrays to simulated addresses, maps
stages to SMT thread slots, and runs the discrete-event scheduler to
completion. The :class:`~repro.pipette.stats.RunResult` it returns carries
final array contents, cycle counts, and the full statistics the evaluation
figures need.
"""

import weakref

from ..errors import ResourceError, SimulationError
from ..ir.verifier import verify_pipeline
from .batchpath import BatchStageInterp
from .config import resolve_engine
from .fastpath import FastStageInterp
from .interp import ArrayBinding, StageInterp, ThreadCtx
from .mem import AddressMap, MemorySystem
from .queues import HWQueue
from .refaccel import RAEngine
from .sched import BarrierSync, IssueLedger, Scheduler, SharedCells, Task
from .stats import RunResult, SimStats


class RunSpec:
    """One pipeline instance to run: program + data bindings + placement.

    ``arrays`` maps array names to Python lists (mutated in place);
    ``scalars`` maps scalar parameter names to values. ``core`` places all
    stages on one core; ``stage_cores`` optionally places stage i on
    ``stage_cores[i]`` (pipelines may span cores, Sec. V).
    """

    def __init__(self, pipeline, arrays, scalars, core=0, stage_cores=None):
        self.pipeline = pipeline
        self.arrays = arrays
        self.scalars = scalars
        self.core = core
        self.stage_cores = stage_cores

    def core_of_stage(self, index):
        if self.stage_cores is not None:
            return self.stage_cores[index]
        return self.core

    def core_of(self, endpoint):
        """The core a queue endpoint (``("stage", i)``, ``("ra", j)``) runs
        on: a stage where it is placed, anything else on ``core``."""
        kind, index = endpoint
        if kind == "stage":
            return self.core_of_stage(index)
        return self.core


class RunEnv:
    """Per-replica runtime environment shared by that replica's stages/RAs."""

    def __init__(self, machine, spec, stats):
        # Weak: the machine owns its envs (``Machine.envs``), so a strong
        # back-reference would make every finished run a reference cycle
        # that only the cyclic GC can free.
        self._machine = weakref.ref(machine)
        self.spec = spec
        self.stats = stats
        self.arrays = {}
        self.queues = {}
        self.shared = None  # installed by the machine (global across replicas)
        self.intrinsics = spec.pipeline.intrinsics
        self.barrier = None  # installed by the machine (global)
        self.core = spec.core
        self.atomic_overhead = 15

    @property
    def machine(self):
        return self._machine()

    def queue_of(self, interp, qid):
        return self.queues[qid]

    def remote_queue(self, interp, qid, replica):
        """Resolve a distribute target: queue ``qid`` of ``replica``."""
        envs = self.machine.envs
        if not 0 <= replica < len(envs):
            raise SimulationError("enq_dist to replica %d of %d" % (replica, len(envs)))
        target = envs[replica]
        queue = target.queues[qid]
        extra = 0.0
        if target.spec.core_of(target.spec.pipeline.queues[qid].consumer) != interp.ctx.core:
            extra = max(0.0, self.machine.config.xcore_queue_latency - queue.latency)
        return queue, extra

    def all_replica_queues(self, interp, qid):
        for replica in range(len(self.machine.envs)):
            yield self.remote_queue(interp, qid, replica)

    def on_thread_done(self, interp):
        if self.barrier is not None:
            self.barrier.drop_participant()


def _static_deadlock_verdict(specs):
    """One report line cross-linking the static analyzer's verdict.

    Called only when the scheduler is already raising a deadlock, so cost
    does not matter; imported lazily because the simulator must stay
    importable without the analysis stack.
    """
    try:
        from ..analysis.sanitize import sanitize_pipeline
    except ImportError:  # pragma: no cover - analysis stack always ships
        return None
    findings = []
    for spec in specs:
        try:
            diags = sanitize_pipeline(spec.pipeline)
        except Exception:  # pragma: no cover - a broken pipeline: no verdict
            return None
        findings.extend(
            d for d in diags if d.severity == "error" or d.code.startswith("PHL2")
        )
    if findings:
        return "static analysis predicted this: %s" % "; ".join(
            d.render() for d in findings[:4]
        )
    return (
        "static analysis found no topology cycle or token imbalance; "
        "suspect undersized queues for this input (depth: each QueueSpec.capacity, which "
        "CompileOptions sets for a compiled pipeline) or data-dependent token loss"
    )


class Machine:
    """A Pipette multicore machine ready to run pipeline programs.

    ``tracer`` (a :class:`~repro.obs.tracer.Tracer`) opts the whole run into
    cycle-domain event tracing: scheduler spans, stall intervals, queue
    occupancy samples, and RA loads. With the default ``None`` no event
    buffer exists and the simulation is unchanged.

    ``engine`` selects the stage execution engine by name (``"reference"``,
    ``"fastpath"``, ``"batch"``). ``None`` defers to ``REPRO_ENGINE`` and
    then the default, ``"batch"`` (see
    :func:`~repro.pipette.config.resolve_engine`). All engines produce
    bit-identical :class:`SimStats`.

    During and after :meth:`run` (also one that raised), ``stage_engines``
    maps each stage thread name to the engine that actually executed it and
    ``stage_fallbacks`` maps the threads whose requested engine could not
    express them to the reason; the result carries the same two maps —
    deliberately outside :class:`SimStats`, whose summaries are compared
    for equality across engines.

    Lifetime: a finished machine holds no reference cycle (back-references
    are weak and :meth:`run` tears down the scheduler-only links), so
    dropping the last reference frees the whole run without the cyclic GC.
    The result :meth:`run` returns holds no machine.
    """

    _ENGINE_CLASSES = {
        "reference": StageInterp,
        "fastpath": FastStageInterp,
        "batch": BatchStageInterp,
    }

    def __init__(self, config, tracer=None, engine=None):
        self.config = config
        self.stats = None
        self.mem = None
        self.envs = []
        self.tracer = tracer
        self.engine = engine
        self.stage_engines = {}
        self.stage_fallbacks = {}

    def run(self, specs):
        """Run the given :class:`RunSpec` list to completion.

        All specs run concurrently (replicas, or co-scheduled independent
        pipelines); a single global barrier spans every stage thread, which
        is how program phases stay aligned across replicas. Returns the
        :class:`~repro.pipette.stats.RunResult`.
        """
        if isinstance(specs, RunSpec):
            specs = [specs]
        config = self.config
        stats = SimStats()
        self.stats = stats
        self.mem = MemorySystem(config, stats)
        addr_map = AddressMap()
        ledgers = [IssueLedger(config.issue_width) for _ in range(config.cores)]
        tracer = self.tracer
        topology = {"task_replica": {}, "producer": {}, "consumer": {}}
        scheduler = Scheduler(
            tracer=tracer,
            topology=topology,
            deadlock_hint=lambda: _static_deadlock_verdict(specs),
        )
        self.envs = []
        self.stage_engines = {}
        self.stage_fallbacks = {}

        threads_per_core = [0] * config.cores
        stage_tasks = []
        buffer_bases = {}
        # Shared scalar cells span replicas: replicated pipelines exchange
        # per-replica fringe sizes through distinct keys.
        shared_cells = SharedCells()
        interp_class = self._ENGINE_CLASSES[resolve_engine(engine=self.engine)]

        for replica, spec in enumerate(specs):
            pipeline = spec.pipeline
            verify_pipeline(pipeline, max_queues=config.max_queues, max_ras=config.max_ras)
            env = RunEnv(self, spec, stats)
            env.shared = shared_cells
            self.envs.append(env)

            for name, decl in pipeline.arrays.items():
                if name not in spec.arrays:
                    raise SimulationError("run: array %r not bound" % name)
                data = spec.arrays[name]
                key = id(data)
                if key in buffer_bases:
                    base = buffer_bases[key]
                else:
                    base = addr_map.register(
                        "r%d.%s" % (replica, name), len(data) * decl.elem_size
                    )
                    buffer_bases[key] = base
                env.arrays[name] = ArrayBinding(name, data, base, decl.elem_size, decl.is_float)

            # Task names keyed by queue endpoint: the tasks take their names
            # from it, and the deadlock report's topology looks ends up in it.
            names = {
                ("stage", s.index): "r%d.s%d.%s" % (replica, s.index, s.name)
                for s in pipeline.stages
            }
            names.update((("ra", r.raid), "r%d.ra%d" % (replica, r.raid)) for r in pipeline.ras)
            for name in names.values():
                topology["task_replica"][name] = replica
            for q in pipeline.queues.values():
                latency = config.queue_latency
                if spec.core_of(q.producer) != spec.core_of(q.consumer):
                    latency = config.xcore_queue_latency
                env.queues[q.qid] = HWQueue(
                    q.qid,
                    q.capacity,
                    latency,
                    tracer=tracer,
                    label="r%d.q%d" % (replica, q.qid),
                )
                for role, endpoint in (("producer", q.producer), ("consumer", q.consumer)):
                    if endpoint in names:
                        topology[role][(replica, q.qid)] = names[endpoint]

            for stage in pipeline.stages:
                core = spec.core_of_stage(stage.index)
                if not 0 <= core < config.cores:
                    raise ResourceError("stage mapped to core %d of %d" % (core, config.cores))
                threads_per_core[core] += 1
                name = names[("stage", stage.index)]
                task = Task(name)
                tstats = stats.new_thread(name)
                ctx = ThreadCtx(config, core, ledgers[core], self.mem, tstats, task, tracer=tracer)
                ledgers[core].sharers.append(ctx)
                for pname, value in spec.scalars.items():
                    ctx.regs[pname] = value
                missing = [p for p in pipeline.scalar_params if p not in spec.scalars]
                if missing:
                    raise SimulationError("run: scalar params %s not bound" % missing)
                interp = interp_class(stage, ctx, env)
                self.stage_engines[name] = interp.ENGINE
                reason = getattr(interp, "fallback_reason", None)
                if reason is not None:
                    self.stage_fallbacks[name] = reason
                task.clock_ref = lambda c=ctx: c.cursor
                scheduler.add(task, interp.run())
                stage_tasks.append((task, ctx))

            for spec_ra in pipeline.ras:
                task = Task(names[("ra", spec_ra.raid)], daemon=True)
                engine = RAEngine(spec_ra, env, task)
                task.clock_ref = lambda e=engine: e.clock
                scheduler.add(task, engine.run())

        for core, used in enumerate(threads_per_core):
            if used > config.smt_threads:
                raise ResourceError(
                    "core %d assigned %d stage threads but supports %d SMT threads"
                    % (core, used, config.smt_threads)
                )

        barrier = BarrierSync(len(stage_tasks))
        for env in self.envs:
            env.barrier = barrier

        try:
            scheduler.run()
        finally:
            scheduler.teardown()
            # ledger.sharers <-> ctx.ledger is the one loop teardown cannot
            # see; a finished run prunes nothing.
            for ledger in ledgers:
                ledger.sharers.clear()

        wall = max((ctx.stats.end_cycle for _, ctx in stage_tasks), default=0.0)
        stats.wall_cycles = wall
        # A stage's enqueue or dequeue is one of its queue's; RA traffic is
        # billed as ``ra_loads`` and stays out of the queue-op totals.
        for env in self.envs:
            for qid, q in sorted(env.spec.pipeline.queues.items()):
                queue = env.queues[qid]
                stats.register_queue(queue.label, queue)
                if q.producer[0] != "ra":
                    stats.queue_enqs += queue.total_enqs
                if q.consumer[0] != "ra":
                    stats.queue_deqs += queue.total_deqs
        if tracer is not None:
            tracer.meta.setdefault("wall_cycles", wall)
        return RunResult(
            wall,
            [{name: b.data for name, b in env.arrays.items()} for env in self.envs],
            stats,
            sum(1 for used in threads_per_core if used),  # active cores
            self.stage_engines,
            self.stage_fallbacks,
        )
