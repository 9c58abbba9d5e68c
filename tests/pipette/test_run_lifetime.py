"""A finished simulation is not a reference cycle.

The perf harness and the end-to-end load generator run with the cyclic GC
off; every run that needed it to be freed was retained memory there. These
tests pin that, on every engine, dropping a ``RunResult`` frees its
``Machine`` by reference counting alone — while a held result still
supports post-run introspection.
"""

import gc
import weakref

import pytest

from repro.bench.harness import adapter_for
from repro.core import CompileOptions, compile_function
from repro.errors import DeadlockError
from repro import ir
from repro.pipette import Machine, MachineConfig, RunSpec
from repro.pipette import ENGINES
from repro.pipette.interp import ThreadCtx
from repro.pipette.sched import Task
from repro.runtime import describe_run, run_pipeline
from repro.runtime.inspect import queue_report


@pytest.fixture
def gc_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def _pipelines(micro_graph):
    """A compiled pipeline (queues + daemon RAs) and a data-parallel one
    (barriers, atomics, one thread per worker)."""
    adapter = adapter_for("bfs")
    arrays, scalars = adapter.env(micro_graph)
    compiled = compile_function(adapter.function(), options=CompileOptions())
    assert compiled.ras, "the lifetime test wants never-finished RA generators"
    dp_arrays, dp_scalars = adapter.dp_env(micro_graph, 3)
    return [(compiled, arrays, scalars), (adapter.dp_pipeline(3), dp_arrays, dp_scalars)]


@pytest.mark.parametrize("engine", ENGINES)
def test_dropping_the_result_frees_the_machine(engine, micro_graph, tiny_config, gc_off):
    for pipeline, arrays, scalars in _pipelines(micro_graph):
        result = run_pipeline(pipeline, arrays, scalars, config=tiny_config, engine=engine)
        machine = weakref.ref(result.machine)
        env = weakref.ref(result.machine.envs[0])
        del result
        assert machine() is None and env() is None


@pytest.mark.parametrize("engine", ENGINES)
def test_dropped_runs_leave_nothing_for_the_collector(engine, micro_graph, tiny_config, gc_off):
    cases = _pipelines(micro_graph)
    for _ in range(10):
        for pipeline, arrays, scalars in cases:
            run_pipeline(pipeline, arrays, scalars, config=tiny_config, engine=engine)
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    leaked = [obj for obj in gc.garbage if isinstance(obj, (Machine, ThreadCtx, Task))]
    assert leaked == []


@pytest.mark.parametrize("engine", ENGINES)
def test_held_result_still_supports_inspection(engine, micro_graph, tiny_config, gc_off):
    pipeline, arrays, scalars = _pipelines(micro_graph)[0]
    result = run_pipeline(pipeline, arrays, scalars, config=tiny_config, engine=engine)
    rows = queue_report(result.machine)
    assert rows and sum(row["enqs"] for row in rows) > 0
    assert result.machine.envs[0].machine is result.machine
    text = describe_run(result, result.machine)
    assert "full-blocks" in text and "r0.s0" in text
    assert set(result.stage_engines.values()) == {engine}


@pytest.mark.parametrize("engine", ENGINES)
def test_failed_run_is_torn_down_too(engine, gc_off):
    b = ir.IRBuilder()
    b.deq(0)  # nobody ever enqueues: deadlock
    stage = ir.StageProgram(0, "starved", b.finish())
    queue = ir.QueueSpec(0, ("extern", 0), ("stage", 0))
    pipe = ir.PipelineProgram("p", [stage], [queue], [], {}, [])
    machine = Machine(MachineConfig(), engine=engine)
    with pytest.raises(DeadlockError, match="starved waiting on"):
        machine.run(RunSpec(pipe, {}, {}))
    ref = weakref.ref(machine)
    del machine
    assert ref() is None
