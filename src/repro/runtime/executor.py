"""High-level executors: run serial functions and pipelines conveniently.

Wraps :class:`~repro.pipette.machine.Machine` with input copying (runs never
mutate caller data unless asked), so benchmarks can say
``run_serial(func, env)`` / ``run_pipeline(pipe, env)`` and compare cycles
and outputs directly. Every executor returns the machine's
:class:`~repro.pipette.stats.RunResult`, which holds no machine.
"""

from ..ir.program import serial_pipeline
from ..pipette.config import MachineConfig
from ..pipette.machine import Machine, RunSpec
from ..pipette.stats import RunResult  # noqa: F401 - what every executor returns


def _run(specs, config, copy, tracer, engine):
    """Run ``specs`` on one fresh machine. With ``copy``, each distinct input
    list is copied once, so arrays that share a list keep sharing it."""
    if copy:
        copies = {}
        for spec in specs:
            bound = {}
            for name, data in spec.arrays.items():
                key = id(data)
                if key not in copies:
                    copies[key] = list(data)
                bound[name] = copies[key]
            spec.arrays = bound
    return Machine(config or MachineConfig(), tracer=tracer, engine=engine).run(specs)


def run_pipeline(
    pipeline, arrays, scalars, config=None, core=0, stage_cores=None, copy=True,
    tracer=None, engine=None,
):
    """Run one pipeline program; returns a :class:`RunResult`.

    ``tracer`` (a :class:`repro.obs.Tracer`) opts into cycle-domain event
    tracing; the default ``None`` keeps the run trace-free and unchanged.
    ``engine`` selects the execution engine by name (``"reference"``,
    ``"fastpath"``, ``"batch"``). ``None`` defers to ``REPRO_ENGINE`` and
    then the default, ``"batch"`` (see
    :func:`~repro.pipette.config.resolve_engine`).
    """
    spec = RunSpec(pipeline, arrays, scalars, core=core, stage_cores=stage_cores)
    return _run([spec], config, copy, tracer, engine)


def run_serial(function, arrays, scalars, config=None, copy=True, tracer=None, engine=None):
    """Run a serial Function as a single-stage pipeline."""
    return run_pipeline(
        serial_pipeline(function), arrays, scalars, config=config, copy=copy,
        tracer=tracer, engine=engine,
    )


def run_replicated(pipelines_and_envs, config, copy=True, tracer=None, engine=None):
    """Run several pipeline instances concurrently (replication, Fig. 14).

    ``pipelines_and_envs`` is a list of ``(pipeline, arrays, scalars, core)``
    tuples. Arrays may share the same underlying list objects to model
    shared data structures; when ``copy`` is set, identical objects are
    copied once and stay shared. ``replica_arrays[i]`` of the result is
    replica ``i``'s arrays.
    """
    specs = [
        RunSpec(pipeline, arrays, scalars, core=core)
        for pipeline, arrays, scalars, core in pipelines_and_envs
    ]
    return _run(specs, config, copy, tracer, engine)
