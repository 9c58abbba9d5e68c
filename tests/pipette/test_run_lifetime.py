"""A finished simulation is not a reference cycle.

The perf harness and the end-to-end load generator run with the cyclic GC
off; every run that needed it to be freed was retained memory there. These
tests pin that, on every engine, dropping a ``Machine`` frees it by
reference counting alone — while its ``RunResult``, which holds no machine,
is still held and still supports post-run introspection.
"""

import gc
import sys
import weakref

import pytest

from repro.bench.harness import DP_THREADS, adapter_for
from repro.bench.perf import QUICK_INPUTS, build_input
from repro.core import CompileOptions, compile_function
from repro.errors import DeadlockError
from repro import ir
from repro.pipette import Machine, MachineConfig, RunSpec
from repro.pipette import ENGINES
from repro.pipette import machine as machine_module
from repro.pipette import sched
from repro.pipette.interp import StageInterp, ThreadCtx
from repro.pipette.sched import IssueLedger, Task
from repro.runtime import describe_run, run_pipeline, run_serial
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


def _held_run(pipeline, arrays, scalars, config, engine):
    """Run on a machine the caller never sees again: ``(weak refs to the
    machine and its first env, the result)``."""
    machine = Machine(config, engine=engine)
    spec = RunSpec(pipeline, {name: list(data) for name, data in arrays.items()}, scalars)
    result = machine.run(spec)
    return weakref.ref(machine), weakref.ref(machine.envs[0]), result


@pytest.mark.parametrize("engine", ENGINES)
def test_dropping_the_machine_frees_it_while_the_result_is_held(
    engine, micro_graph, tiny_config, gc_off
):
    for pipeline, arrays, scalars in _pipelines(micro_graph):
        machine, env, result = _held_run(pipeline, arrays, scalars, tiny_config, engine)
        assert machine() is None and env() is None
        assert result.cycles > 0


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
    machine, _env, result = _held_run(pipeline, arrays, scalars, tiny_config, engine)
    assert machine() is None
    rows = queue_report(result)
    assert rows and sum(row["enqs"] for row in rows) > 0
    text = describe_run(result)
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


# -- the ledger's size follows the machine, not the run --------------------


@pytest.fixture
def ledgers(monkeypatch):
    """Every ``IssueLedger`` the machines of this test build. Each records
    its sweeps as ``(from resync?, lowest cursor among the unfinished
    sharers, window bytes before, window bytes after)``; between sweeps the
    ``slots`` window only grows, so the high-water mark is the largest
    ``before`` or the final size."""
    made = []

    class Watched(IssueLedger):
        __slots__ = ("sweeps",)

        def __init__(self, width):
            super().__init__(width)
            self.sweeps = []
            made.append(self)

        def prune(self):
            before = len(self.slots)
            live = [s.cursor for s in self.sharers if not s.task.done]
            super().prune()
            caller = sys._getframe(1)
            while caller.f_code.co_name == "prune":  # a subclass's override
                caller = caller.f_back
            from_resync = caller.f_code.co_name == "resync"
            self.sweeps.append((from_resync, min(live, default=None), before, len(self.slots)))

        @property
        def high_water(self):
            return max([before for _, _, before, _ in self.sweeps] + [len(self.slots)])

    monkeypatch.setattr(machine_module, "IssueLedger", Watched)
    return made


def _quick_run(bench, variant, engine):
    """``bench`` on its QUICK input: the compiled pipeline, the serial
    function, or the data-parallel kernel on ``DP_THREADS`` workers."""
    adapter = adapter_for(bench)
    data = build_input(QUICK_INPUTS[bench])
    if variant == "dp":
        arrays, scalars = adapter.dp_env(data, DP_THREADS)
        return run_pipeline(adapter.dp_pipeline(DP_THREADS), arrays, scalars, engine=engine)
    arrays, scalars = adapter.env(data)
    if variant == "serial":
        return run_serial(adapter.function(), arrays, scalars, engine=engine)
    pipeline = compile_function(adapter.function(), options=CompileOptions())
    return run_pipeline(pipeline, arrays, scalars, engine=engine)


#: (kernel, variant, bound on the ledger window's high-water size in bytes,
#: one byte per cycle it spans). A pipeline keeps the cycles between its
#: slowest and fastest stage (a few queue depths of work: 52 923 bytes on
#: ``spmm``) and a lone thread keeps nothing but the watermark's slack
#: (6 683 and 7 169); ``sssp`` compiles to one stage, so nothing in it ever
#: yields to the scheduler. Before the ledger could forget, the same runs
#: ended holding 488 648, 191 436 and 118 229 dict entries of about 81
#: bytes each.
RUN_SHAPES = [
    ("spmm", "static", 64 * 1024),  # 2.09 M cycles, four stages
    ("bfs", "serial", 8192),  # 1.04 M cycles, one thread
    ("sssp", "static", 8192),  # 0.53 M cycles, a one-stage "pipeline"
]


@pytest.mark.parametrize("engine", ["reference", "batch"])
@pytest.mark.parametrize("bench,variant,bound", RUN_SHAPES)
def test_ledger_size_does_not_follow_the_cycle_count(engine, bench, variant, bound, ledgers):
    """The ledger's memory bound: a run of half a million cycles or more
    keeps a window sized by the spread between its threads (here a few
    queue depths, or the watermark's slack for a lone thread), not by its
    cycle count, on both engines. It also pins who sweeps (the reference
    from ``acquire``, batch from its generated ``resync`` only) and that
    the machine cuts the ledger's links to its threads when the run ends."""
    result = _quick_run(bench, variant, engine)
    (ledger,) = ledgers
    assert result.cycles > 500_000
    assert ledger.high_water <= bound
    assert ledger.sweeps, "a run this long sweeps"
    # Each engine forgets through its own spelling only.
    assert {from_resync for from_resync, _, _, _ in ledger.sweeps} == {engine == "batch"}
    assert ledger.sharers == []  # cut with the scheduler links


@pytest.mark.parametrize("engine", ["reference", "batch"])
def test_forced_sweeps_delete_nothing_while_a_dp_worker_has_not_started(
    engine, ledgers, monkeypatch
):
    """The floor rule on a data-parallel run, with a sweep forced at every
    opportunity (the shipped watermark is patched out below). This pins what
    a sweep may delete; it is not a bound on how large a dp run's ledger ends.

    The four workers of a dp kernel run one after another in host time
    (none blocks until its share of the work is done), so while the first
    three run, a worker that has not started holds the floor at cycle 0:
    every cycle must stay, and the peak is bound by the timeline, not by the
    machine: QUICK ``tc.dp``'s window peaks at 194 283 bytes over 193 565
    cycles, with the sweep forced as without it. That is the floor rule
    being exact, not a leak. Once the last worker runs, a sweep does delete
    behind it, and what is left is the tail of the timeline past its own
    last cycle.

    Under the shipped doubling watermark, whether a sweep comes due inside
    the last worker depends on where the doubling falls: at QUICK ``tc.dp``
    and ``spmv.dp`` none does and the window ends as large as it peaked
    (``bfs.dp`` ends at 57 096 of 322 762 bytes). EXPERIMENTS.md, "Simulator
    memory", has the per-operation sizes."""

    class Eager(machine_module.IssueLedger):  # on top of the fixture's recorder
        __slots__ = ("issued",)

        def __init__(self, width):
            super().__init__(width)
            self.issued = []  # _issued() before each sweep, in the order of ``sweeps``

        def prune(self):
            self.issued.append(_issued(self))
            super().prune()
            self.mark = 0

    monkeypatch.setattr(sched, "PRUNE_SLACK", 0)
    monkeypatch.setattr(machine_module, "IssueLedger", Eager)
    adapter = adapter_for("tc")
    data = build_input(("power_law", {"n": 60, "deg": 4, "seed": 7}))
    arrays, scalars = adapter.dp_env(data, DP_THREADS)
    result = run_pipeline(adapter.dp_pipeline(DP_THREADS), arrays, scalars, engine=engine)
    assert adapter.check_dp(result.arrays, data)
    (ledger,) = ledgers
    held = [i for i, (_, low, _, _) in enumerate(ledger.sweeps) if low == 0.0]
    assert held and all(ledger.sweeps[i][2] == ledger.sweeps[i][3] for i in held)
    peak = max(ledger.sweeps[i][2] for i in held)
    assert peak > result.cycles / 4  # most cycles of the timeline, all at once
    # With every sweep forced, the last worker's sweeps are the only ones that
    # delete. The window left spans the whole tail of the timeline, so this
    # counts the cycles something issued in, before and after.
    assert _issued(ledger) < max(ledger.issued[i] for i in held) / 3


def _issued(ledger):
    """Cycles of the window with a nonzero count."""
    return len(ledger.slots) - ledger.slots.count(0)


#: The QUICK data-parallel kernels of the repo benchmark's ``sim_baseline``
#: workload. While a worker that has not started holds the floor at cycle 0
#: the window spans most of the timeline, one byte per cycle: 322 762,
#: 194 283 and 230 902 bytes at their peaks, where a ``{cycle: count}`` dict
#: held about 8 MiB for ``bfs.dp``.
DP_SHAPES = ["bfs", "tc", "spmv"]


@pytest.mark.parametrize("bench", DP_SHAPES)
def test_a_dp_window_costs_a_byte_per_cycle(bench, ledgers):
    result = _quick_run(bench, "dp", "batch")
    (ledger,) = ledgers
    assert ledger.high_water <= 512 * 1024
    assert ledger.high_water <= result.cycles + sched.GROW


@pytest.mark.parametrize("engine", ENGINES)
def test_ten_runs_leave_no_machine_thread_or_ledger_alive(engine, micro_graph, tiny_config, gc_off):
    """``ledger.sharers`` <-> ``ctx.ledger`` is a loop the scheduler's
    teardown cannot see; ``Machine.run`` cuts it in the same ``finally``."""
    kinds = (Machine, ThreadCtx, IssueLedger)
    before = {id(obj) for obj in gc.get_objects() if isinstance(obj, kinds)}
    cases = _pipelines(micro_graph)
    for _ in range(10):
        for pipeline, arrays, scalars in cases:
            run_pipeline(pipeline, arrays, scalars, config=tiny_config, engine=engine)
    alive = [obj for obj in gc.get_objects() if isinstance(obj, kinds) and id(obj) not in before]
    assert alive == []


def test_fallback_stage_forgets_through_the_same_method(ledgers, monkeypatch):
    """A stage the compiler could not express runs on the reference
    interpreter beside batch stages, on one ledger: its sweeps come from
    ``acquire``, theirs from ``resync``, and the statistics are those of
    either engine alone."""
    monkeypatch.setattr(sched, "PRUNE_SLACK", 64)
    compile_stage = Machine._ENGINE_CLASSES["batch"]

    def first_stage_falls_back(stage, ctx, env):
        if stage.index:
            return compile_stage(stage, ctx, env)
        interp = StageInterp(stage, ctx, env)
        interp.fallback_reason = "forced by the test"
        return interp

    adapter = adapter_for("bfs")
    data = build_input(("power_law", {"n": 400, "deg": 6, "seed": 7}))
    arrays, scalars = adapter.env(data)
    pipeline = compile_function(adapter.function(), options=CompileOptions())
    pure = {
        engine: run_pipeline(pipeline, arrays, scalars, engine=engine).stats.summary()
        for engine in ("reference", "batch")
    }
    del ledgers[:]
    monkeypatch.setitem(Machine._ENGINE_CLASSES, "batch", first_stage_falls_back)
    mixed = run_pipeline(pipeline, arrays, scalars, engine="batch")
    assert sorted(set(mixed.stage_engines.values())) == ["batch", "reference"]
    assert list(mixed.stage_fallbacks.values()) == ["forced by the test"]
    (ledger,) = ledgers
    assert {from_resync for from_resync, _, _, _ in ledger.sweeps} == {True, False}
    assert mixed.stats.summary() == pure["reference"] == pure["batch"]
