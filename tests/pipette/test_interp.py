"""Interpreter semantics: small programs run through the full machine."""

import pytest

from repro import ir
from repro.errors import DeadlockError, SimulationError
from repro.pipette import Machine, MachineConfig, RunSpec


def _run(body, arrays=None, scalars=None, decls=None, handlers=None, intrinsics=None):
    decls = decls or {name: ir.ArrayDecl(name) for name in (arrays or {})}
    stage = ir.StageProgram(0, "t", body, handlers=handlers or {})
    pipe = ir.PipelineProgram("t", [stage], [], [], decls, list((scalars or {}).keys()), intrinsics=intrinsics)
    machine = Machine(MachineConfig())
    result = machine.run(RunSpec(pipe, arrays or {}, scalars or {}))
    return result


def test_arithmetic_and_store():
    b = ir.IRBuilder()
    x = b.binop("mul", 6, 7)
    b.store("@out", 0, x)
    res = _run(b.finish(), {"out": [0]})
    assert res.arrays["out"] == [42]


def test_loop_sum():
    b = ir.IRBuilder()
    b.mov(0, dst="acc")
    with b.for_("i", 0, "n"):
        v = b.load("@a", "i")
        b.binop("add", "acc", v, dst="acc")
    b.store("@out", 0, "acc")
    res = _run(b.finish(), {"a": [1, 2, 3, 4], "out": [0]}, {"n": 4})
    assert res.arrays["out"] == [10]


def test_nested_break_levels():
    b = ir.IRBuilder()
    b.mov(0, dst="count")
    with b.loop():
        with b.loop():
            b.binop("add", "count", 1, dst="count")
            b.break_(2)
    b.store("@out", 0, "count")
    res = _run(b.finish(), {"out": [0]})
    assert res.arrays["out"] == [1]


def test_continue_skips():
    b = ir.IRBuilder()
    b.mov(0, dst="acc")
    with b.for_("i", 0, 10):
        odd = b.binop("mod", "i", 2)
        with b.if_(odd):
            b.continue_()
        b.binop("add", "acc", "i", dst="acc")
    b.store("@out", 0, "acc")
    res = _run(b.finish(), {"out": [0]})
    assert res.arrays["out"] == [0 + 2 + 4 + 6 + 8]


def test_pointer_handles():
    b = ir.IRBuilder()
    b.mov("@a", dst="p")
    b.mov("@b", dst="q")
    tmp = b.mov("p")
    b.mov("q", dst="p")
    b.mov(tmp, dst="q")
    b.store("p", 0, 1)  # now points at b
    res = _run(b.finish(), {"a": [0], "b": [0]})
    assert res.arrays["b"] == [1]
    assert res.arrays["a"] == [0]


def test_out_of_bounds_load_raises():
    b = ir.IRBuilder()
    b.load("@a", 5, dst="v")
    with pytest.raises(SimulationError, match="out of bounds"):
        _run(b.finish(), {"a": [1, 2]})


def test_intrinsic_call():
    b = ir.IRBuilder()
    r = b.call(b.fresh(), "work", [21])
    b.store("@out", 0, r)
    intr = {"work": ir.Intrinsic("work", lambda x: x * 2, cost=10)}
    res = _run(b.finish(), {"out": [0]}, intrinsics=intr)
    assert res.arrays["out"] == [42]


def test_unbound_intrinsic_raises():
    b = ir.IRBuilder()
    b.call(None, "mystery", [])
    with pytest.raises(SimulationError, match="unbound intrinsic"):
        _run(b.finish())


def test_atomic_rmw_returns_old():
    b = ir.IRBuilder()
    old = b.atomic_add("@a", 0, 5)
    b.store("@out", 0, old)
    res = _run(b.finish(), {"a": [10], "out": [0]})
    assert res.arrays["a"] == [15]
    assert res.arrays["out"] == [10]


def test_shared_cells_roundtrip():
    b = ir.IRBuilder()
    b.write_shared("total", 7)
    b.barrier()
    x = b.read_shared("total")
    b.barrier()
    b.store("@out", 0, x)
    res = _run(b.finish(), {"out": [0]})
    assert res.arrays["out"] == [7]


def test_two_stage_queue_roundtrip():
    b0 = ir.IRBuilder()
    with b0.for_("i", 0, 5):
        b0.enq(0, "i")
    s0 = ir.StageProgram(0, "p", b0.finish())

    b1 = ir.IRBuilder()
    b1.mov(0, dst="acc")
    with b1.for_("i", 0, 5):
        v = b1.deq(0)
        b1.binop("add", "acc", v, dst="acc")
    b1.store("@out", 0, "acc")
    s1 = ir.StageProgram(1, "c", b1.finish())

    pipe = ir.PipelineProgram(
        "t", [s0, s1], [ir.QueueSpec(0, ("stage", 0), ("stage", 1))], [],
        {"out": ir.ArrayDecl("out")}, [],
    )
    machine = Machine(MachineConfig())
    res = machine.run(RunSpec(pipe, {"out": [0]}, {}))
    assert res.arrays["out"] == [10]


def test_control_handler_breaks_loop():
    b0 = ir.IRBuilder()
    for v in (1, 2, 3):
        b0.enq(0, v)
    b0.enq_ctrl(0, "DONE")
    s0 = ir.StageProgram(0, "p", b0.finish())

    b1 = ir.IRBuilder()
    b1.mov(0, dst="acc")
    with b1.loop():
        v = b1.deq(0)
        b1.binop("add", "acc", v, dst="acc")
    b1.store("@out", 0, "acc")
    s1 = ir.StageProgram(1, "c", b1.finish(), handlers={0: [ir.Break(1)]})

    pipe = ir.PipelineProgram(
        "t", [s0, s1], [ir.QueueSpec(0, ("stage", 0), ("stage", 1))], [],
        {"out": ir.ArrayDecl("out")}, [],
    )
    res = Machine(MachineConfig()).run(RunSpec(pipe, {"out": [0]}, {}))
    assert res.arrays["out"] == [6]


def test_handler_fallthrough_retries():
    """A handler without Break consumes the marker and keeps dequeuing."""
    b0 = ir.IRBuilder()
    b0.enq(0, 1)
    b0.enq_ctrl(0, "NEXT")
    b0.enq(0, 2)
    b0.enq_ctrl(0, "DONE")
    s0 = ir.StageProgram(0, "p", b0.finish())

    b1 = ir.IRBuilder()
    b1.mov(0, dst="acc")
    b1.mov(0, dst="dones")
    with b1.loop():
        v = b1.deq(0)
        b1.binop("add", "acc", v, dst="acc")
    b1.store("@out", 0, "acc")
    handler = [
        ir.Assign("dones", "add", ["dones", 1]),
        ir.Assign("%stop", "ge", ["dones", 2]),
        ir.If("%stop", [ir.Break(1)], []),
    ]
    s1 = ir.StageProgram(1, "c", b1.finish(), handlers={0: handler})
    pipe = ir.PipelineProgram(
        "t", [s0, s1], [ir.QueueSpec(0, ("stage", 0), ("stage", 1))], [],
        {"out": ir.ArrayDecl("out")}, [],
    )
    res = Machine(MachineConfig()).run(RunSpec(pipe, {"out": [0]}, {}))
    assert res.arrays["out"] == [3]


def test_is_control_explicit_check():
    b0 = ir.IRBuilder()
    b0.enq(0, 9)
    b0.enq_ctrl(0, "DONE")
    s0 = ir.StageProgram(0, "p", b0.finish())

    b1 = ir.IRBuilder()
    b1.mov(0, dst="acc")
    with b1.loop():
        v = b1.deq(0)
        c = b1.is_control(v)
        with b1.if_(c):
            b1.break_()
        b1.binop("add", "acc", v, dst="acc")
    b1.store("@out", 0, "acc")
    s1 = ir.StageProgram(1, "c", b1.finish())
    pipe = ir.PipelineProgram(
        "t", [s0, s1], [ir.QueueSpec(0, ("stage", 0), ("stage", 1))], [],
        {"out": ir.ArrayDecl("out")}, [],
    )
    res = Machine(MachineConfig()).run(RunSpec(pipe, {"out": [0]}, {}))
    assert res.arrays["out"] == [9]


def test_peek_then_deq():
    b0 = ir.IRBuilder()
    b0.enq(0, 5)
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    x = b1.peek(0)
    y = b1.deq(0)
    b1.store("@out", 0, b1.binop("add", x, y))
    s1 = ir.StageProgram(1, "c", b1.finish())
    pipe = ir.PipelineProgram(
        "t", [s0, s1], [ir.QueueSpec(0, ("stage", 0), ("stage", 1))], [],
        {"out": ir.ArrayDecl("out")}, [],
    )
    res = Machine(MachineConfig()).run(RunSpec(pipe, {"out": [0]}, {}))
    assert res.arrays["out"] == [10]


def test_queue_mismatch_deadlocks():
    """A consumer expecting more values than produced deadlocks loudly."""
    b0 = ir.IRBuilder()
    b0.enq(0, 1)
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    b1.deq(0)
    b1.deq(0)  # never arrives
    s1 = ir.StageProgram(1, "c", b1.finish())
    pipe = ir.PipelineProgram(
        "t", [s0, s1], [ir.QueueSpec(0, ("stage", 0), ("stage", 1))], [], {}, [],
    )
    with pytest.raises(DeadlockError):
        Machine(MachineConfig()).run(RunSpec(pipe, {}, {}))


def test_missing_scalar_binding_raises():
    b = ir.IRBuilder()
    b.mov("n", dst="x")
    stage = ir.StageProgram(0, "t", b.finish())
    pipe = ir.PipelineProgram("t", [stage], [], [], {}, ["n"])
    with pytest.raises(SimulationError, match="scalar params"):
        Machine(MachineConfig()).run(RunSpec(pipe, {}, {}))


def test_missing_array_binding_raises():
    b = ir.IRBuilder()
    b.load("@a", 0)
    stage = ir.StageProgram(0, "t", b.finish())
    pipe = ir.PipelineProgram("t", [stage], [], [], {"a": ir.ArrayDecl("a")}, [])
    with pytest.raises(SimulationError, match="not bound"):
        Machine(MachineConfig()).run(RunSpec(pipe, {}, {}))


def test_float_arithmetic():
    b = ir.IRBuilder()
    x = b.binop("mul", 0.5, "alpha")
    b.store("@out", 0, x)
    res = _run(b.finish(), {"out": [0.0]}, {"alpha": 3.0})
    assert res.arrays["out"] == [1.5]


def test_select_and_pack():
    b = ir.IRBuilder()
    p = b.binop("pack2", 3, 4)
    a = b.assign("fst", [p])
    c = b.assign("select", [b.binop("gt", a, 0), a, 0])
    b.store("@out", 0, c)
    res = _run(b.finish(), {"out": [0]})
    assert res.arrays["out"] == [3]
