"""Control-value passes on synthetic pipelines (beyond the BFS path)."""

from repro import ir
from repro.core.ctrl import apply_control_handlers, apply_control_values, apply_interstage_dce
from repro.pipette import Machine, MachineConfig, RunSpec


def _bounded_pair():
    """Producer streams variable-length bursts; consumer gets queued bounds."""
    b0 = ir.IRBuilder()
    with b0.for_("i", 0, "n"):
        lo = b0.load("@bounds", "i", dst="lo")
        hi = b0.load("@bounds", b0.binop("add", "i", 1), dst="hi")
        b0.enq(1, "lo")
        b0.enq(2, "hi")
        with b0.for_("e", "lo", "hi"):
            v = b0.load("@data", "e", dst="v")
            b0.enq(0, "v")
    s0 = ir.StageProgram(0, "p", b0.finish())

    b1 = ir.IRBuilder()
    b1.mov(0, dst="acc")
    with b1.for_("i", 0, "n"):
        lo = b1.deq(1, dst="clo")
        hi = b1.deq(2, dst="chi")
        with b1.for_("e", "clo", "chi"):
            v = b1.deq(0, dst="x")
            b1.binop("add", "acc", "x", dst="acc")
    b1.store("@out", 0, "acc")
    s1 = ir.StageProgram(1, "c", b1.finish())

    return ir.PipelineProgram(
        "t",
        [s0, s1],
        [
            ir.QueueSpec(0, ("stage", 0), ("stage", 1)),
            ir.QueueSpec(1, ("stage", 0), ("stage", 1)),
            ir.QueueSpec(2, ("stage", 0), ("stage", 1)),
        ],
        [],
        {name: ir.ArrayDecl(name) for name in ("bounds", "data", "out")},
        ["n"],
    )


def _run(pipe):
    bounds = [0, 2, 2, 5]
    data = [3, 4, 10, 20, 30]
    res = Machine(MachineConfig()).run(
        RunSpec(pipe, {"bounds": bounds, "data": data, "out": [0]}, {"n": 3})
    )
    assert res.arrays["out"] == [sum(data)]
    return res


def test_baseline_runs():
    _run(_bounded_pair())


def test_cv_removes_bounds_queues():
    pipe = _bounded_pair()
    apply_control_values(pipe)
    assert set(pipe.queues) == {0}
    # Producer now marks burst ends in-band.
    markers = [
        s
        for stage in pipe.stages
        for s in stage.all_stmts()
        if s.kind == "enq_ctrl" and s.ctrl.name == ir.Ctrl.NEXT
    ]
    assert markers
    # Consumer's inner For became an unbounded loop with an is_control test.
    consumer = pipe.stages[1]
    kinds = [s.kind for s in ir.walk(consumer.body)]
    assert "is_control" in kinds
    _run(pipe)


def test_dce_collapses_to_single_stream():
    pipe = _bounded_pair()
    apply_control_values(pipe)
    apply_interstage_dce(pipe)
    consumer = pipe.stages[1]
    fors = [s for s in ir.walk(consumer.body) if s.kind == "for"]
    assert not fors  # outer counted loop gone
    dones = [
        s
        for s in pipe.stages[0].all_stmts()
        if s.kind == "enq_ctrl" and s.ctrl.name == ir.Ctrl.DONE
    ]
    assert len(dones) == 1
    _run(pipe)


def test_handlers_replace_checks():
    pipe = _bounded_pair()
    apply_control_values(pipe)
    apply_interstage_dce(pipe)
    apply_control_handlers(pipe)
    consumer = pipe.stages[1]
    assert 0 in consumer.handlers
    kinds = [s.kind for s in ir.walk(consumer.body)]
    assert "is_control" not in kinds
    _run(pipe)


def test_cv_skips_loop_with_used_var():
    """If the loop variable is used in the body, CV must not convert."""
    b0 = ir.IRBuilder()
    b0.enq(1, 0)
    b0.enq(2, "n")
    with b0.for_("e", 0, "n"):
        v = b0.load("@data", "e", dst="v")
        b0.enq(0, "v")
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    lo = b1.deq(1, dst="lo")
    hi = b1.deq(2, dst="hi")
    with b1.for_("e", "lo", "hi"):
        v = b1.deq(0, dst="x")
        b1.store("@out", "e", "x")  # uses e: conversion would lose it
    s1 = ir.StageProgram(1, "c", b1.finish())
    pipe = ir.PipelineProgram(
        "t",
        [s0, s1],
        [
            ir.QueueSpec(0, ("stage", 0), ("stage", 1)),
            ir.QueueSpec(1, ("stage", 0), ("stage", 1)),
            ir.QueueSpec(2, ("stage", 0), ("stage", 1)),
        ],
        [],
        {name: ir.ArrayDecl(name) for name in ("data", "out")},
        ["n"],
    )
    apply_control_values(pipe)
    assert set(pipe.queues) == {0, 1, 2}  # untouched


def test_cv_skips_reused_bounds():
    """Bounds used beyond the loop header must keep their queues."""
    b0 = ir.IRBuilder()
    b0.enq(1, 0)
    b0.enq(2, "n")
    with b0.for_("e", 0, "n"):
        v = b0.load("@data", "e", dst="v")
        b0.enq(0, "v")
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    lo = b1.deq(1, dst="lo")
    hi = b1.deq(2, dst="hi")
    with b1.for_("e", "lo", "hi"):
        v = b1.deq(0, dst="x")
    b1.store("@out", 0, "hi")  # second use of the bound
    s1 = ir.StageProgram(1, "c", b1.finish())
    pipe = ir.PipelineProgram(
        "t",
        [s0, s1],
        [
            ir.QueueSpec(0, ("stage", 0), ("stage", 1)),
            ir.QueueSpec(1, ("stage", 0), ("stage", 1)),
            ir.QueueSpec(2, ("stage", 0), ("stage", 1)),
        ],
        [],
        {name: ir.ArrayDecl(name) for name in ("data", "out")},
        ["n"],
    )
    apply_control_values(pipe)
    assert set(pipe.queues) == {0, 1, 2}
