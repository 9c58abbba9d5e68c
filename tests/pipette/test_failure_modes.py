"""Failure injection: the simulator fails loudly and informatively."""

import pytest

from repro import ir
from repro.errors import DeadlockError, SimulationError
from repro.pipette import Machine, MachineConfig, RunSpec


def test_deadlock_report_names_threads_and_queues():
    b0 = ir.IRBuilder()
    b0.deq(0)
    s0 = ir.StageProgram(0, "alpha", b0.finish())
    b1 = ir.IRBuilder()
    b1.deq(1)
    s1 = ir.StageProgram(1, "beta", b1.finish())
    pipe = ir.PipelineProgram(
        "dl",
        [s0, s1],
        [
            ir.QueueSpec(0, ("stage", 1), ("stage", 0)),
            ir.QueueSpec(1, ("stage", 0), ("stage", 1)),
        ],
        [],
        {},
        [],
    )
    with pytest.raises(DeadlockError) as excinfo:
        Machine(MachineConfig()).run(RunSpec(pipe, {}, {}))
    message = str(excinfo.value)
    assert "alpha" in message and "beta" in message
    assert "deq" in message


def _error_on_every_engine(pipe, arrays):
    """The ``SimulationError`` a run dies with: the reference interpreter's
    text, which the batch engine (compiled, not fallen back) must raise
    character for character."""
    messages = {}
    for engine in ("reference", "batch"):
        machine = Machine(MachineConfig(), engine=engine)
        with pytest.raises(SimulationError) as excinfo:
            machine.run(RunSpec(pipe, {name: list(data) for name, data in arrays.items()}, {}))
        assert set(machine.stage_engines.values()) == {engine}
        messages[engine] = str(excinfo.value)
    assert messages["batch"] == messages["reference"]
    return messages["reference"]


def _one_stage(body, arrays=()):
    stage = ir.StageProgram(0, "w", body)
    return ir.PipelineProgram("t", [stage], [], [], {a: ir.ArrayDecl(a) for a in arrays}, [])


def test_store_out_of_bounds_names_array():
    b = ir.IRBuilder()
    b.store("@buf", 99, 1)
    message = _error_on_every_engine(_one_stage(b.finish(), ["buf"]), {"buf": [0]})
    assert message == "stage w: store @buf[99] out of bounds (len 1)"


def test_load_out_of_bounds_names_array():
    b = ir.IRBuilder()
    b.load("@buf", 7)
    message = _error_on_every_engine(_one_stage(b.finish(), ["buf"]), {"buf": [0, 0]})
    assert message == "stage w: load @buf[7] out of bounds (len 2)"


@pytest.mark.parametrize("verb", ["load", "store"])
def test_pointer_register_out_of_bounds_names_the_register(verb):
    b = ir.IRBuilder()
    b.mov("@buf", dst="p")
    if verb == "load":
        b.load("p", 5)
    else:
        b.store("p", 5, 1)
    message = _error_on_every_engine(_one_stage(b.finish(), ["buf"]), {"buf": [0, 0, 0]})
    assert message == "stage w: %s p[5] out of bounds (len 3)" % verb


def test_pointer_misuse_reported():
    b = ir.IRBuilder()
    b.mov(5, dst="p")  # scalar, not a handle
    b.load("p", 0)
    message = _error_on_every_engine(_one_stage(b.finish()), {})
    assert message == "register 'p' used as pointer holds 5"


def test_pointer_misuse_on_store_reported():
    b = ir.IRBuilder()
    b.mov(5, dst="p")
    b.store("p", 0, 1)
    message = _error_on_every_engine(_one_stage(b.finish()), {})
    assert message == "register 'p' used as pointer holds 5"


def test_scan_ra_rejects_ctrl_mid_pair():
    b0 = ir.IRBuilder()
    b0.enq(0, 0)
    b0.enq_ctrl(0, "NEXT")  # arrives where 'end' belongs
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    b1.deq(1)
    s1 = ir.StageProgram(1, "c", b1.finish())
    pipe = ir.PipelineProgram(
        "t",
        [s0, s1],
        [ir.QueueSpec(0, ("stage", 0), ("ra", 0)), ir.QueueSpec(1, ("ra", 0), ("stage", 1))],
        [ir.RASpec(0, ir.RA_SCAN, "@a", 0, 1)],
        {"a": ir.ArrayDecl("a")},
        [],
    )
    message = _error_on_every_engine(pipe, {"a": [1, 2, 3]})
    assert message == "RA 0 (scan): control value arrived mid-pair"


def test_dangling_break_detected():
    stage = ir.StageProgram(0, "w", [ir.Loop([ir.Break(1)]), ir.Break(1)])
    pipe = ir.PipelineProgram("t", [stage], [], [], {}, [])
    with pytest.raises(Exception):
        Machine(MachineConfig()).run(RunSpec(pipe, {}, {}))


def test_deadlock_report_includes_wait_cycle_and_static_verdict():
    # Fan-in ordering bug with a deliberately under-sized queue: the
    # producer must push 8 tokens into a capacity-2 queue before it ever
    # feeds the queue the consumer blocks on first.
    b0 = ir.IRBuilder()
    with b0.for_("i", 0, 8):
        b0.enq(0, "i")
    b0.enq(1, 1)
    s0 = ir.StageProgram(0, "produce", b0.finish())
    b1 = ir.IRBuilder()
    b1.deq(1)
    with b1.for_("j", 0, 8):
        b1.deq(0)
    s1 = ir.StageProgram(1, "consume", b1.finish())
    pipe = ir.PipelineProgram(
        "fanin",
        [s0, s1],
        [
            ir.QueueSpec(0, ("stage", 0), ("stage", 1), capacity=2),
            ir.QueueSpec(1, ("stage", 0), ("stage", 1), capacity=2),
        ],
        [],
        {},
        [],
    )
    with pytest.raises(DeadlockError) as excinfo:
        Machine(MachineConfig()).run(RunSpec(pipe, {}, {}))
    message = str(excinfo.value)
    # Dynamic trip-wire: the actual wait cycle through named tasks.
    assert "wait cycle:" in message
    assert "r0.s0.produce" in message and "r0.s1.consume" in message
    assert "-(enq q0)->" in message
    # Cross-link back to the static analyzer's verdict.
    assert "static analysis predicted this" in message
    assert "PHL203" in message


def test_deadlock_hint_without_static_finding_blames_configuration():
    # When the analyzer proves the topology sound, the deadlock report must
    # point at the runtime configuration instead of the program.
    from repro.pipette.machine import _static_deadlock_verdict

    b0 = ir.IRBuilder()
    with b0.for_("i", 0, 4):
        b0.enq(0, "i")
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    with b1.for_("i", 0, 4):
        b1.deq(0)
    s1 = ir.StageProgram(1, "c", b1.finish())
    pipe = ir.PipelineProgram(
        "clean",
        [s0, s1],
        [ir.QueueSpec(0, ("stage", 0), ("stage", 1))],
        [],
        {},
        [],
    )
    hint = _static_deadlock_verdict([RunSpec(pipe, {}, {})])
    assert "no topology cycle or token imbalance" in hint
    assert "undersized queues" in hint
    assert "QueueSpec.capacity" in hint


@pytest.mark.parametrize("capacity", [0, -1])
def test_compile_rejects_a_queue_below_one_entry(capacity):
    """A 0-deep queue used to compile and then deadlock at run time; the
    compile's final verify now names it."""
    from repro.core.compiler import compile_function
    from repro.core.options import CompileOptions
    from repro.errors import IRVerificationError
    from repro.workloads import bfs

    with pytest.raises(IRVerificationError, match=r"queue \d+ has capacity %d\b" % capacity):
        compile_function(bfs.function(), options=CompileOptions(queue_capacity=capacity))


@pytest.mark.parametrize("capacity", [0, -1])
def test_run_rejects_a_hand_built_queue_below_one_entry(capacity):
    from repro.errors import IRVerificationError

    b0 = ir.IRBuilder()
    b0.enq(0, 1)
    b1 = ir.IRBuilder()
    b1.deq(0)
    pipe = ir.PipelineProgram(
        "shallow",
        [ir.StageProgram(0, "p", b0.finish()), ir.StageProgram(1, "c", b1.finish())],
        [ir.QueueSpec(0, ("stage", 0), ("stage", 1), capacity, "tokens")],
        [],
        {},
        [],
    )
    with pytest.raises(IRVerificationError, match=r"queue 0 \(tokens\) has capacity %d\b" % capacity):
        Machine(MachineConfig()).run(RunSpec(pipe, {}, {}))
