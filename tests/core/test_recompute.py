"""Pass 2 (recompute) in isolation: rematerialize instead of queueing."""

from repro import ir
from repro.core.recompute import apply_recompute


def _pipeline_with_forwarded_increment():
    """Producer computes v and v+1, queues both; v+1 is recomputable."""
    b0 = ir.IRBuilder()
    with b0.for_("i", 0, "n"):
        v = b0.load("@a", "i", dst="v")
        b0.enq(0, "v")
        w = b0.binop("add", "v", 1, dst="w")
        b0.enq(1, "w")
    s0 = ir.StageProgram(0, "p", b0.finish())

    b1 = ir.IRBuilder()
    with b1.for_("i", 0, "n"):
        v = b1.deq(0, dst="v")
        w = b1.deq(1, dst="w")
        b1.store("@out", "v", "w")
    s1 = ir.StageProgram(1, "c", b1.finish())

    return ir.PipelineProgram(
        "t",
        [s0, s1],
        [
            ir.QueueSpec(0, ("stage", 0), ("stage", 1)),
            ir.QueueSpec(1, ("stage", 0), ("stage", 1)),
        ],
        [],
        {"a": ir.ArrayDecl("a"), "out": ir.ArrayDecl("out")},
        ["n"],
    )


def test_recompute_eliminates_queue():
    pipe = _pipeline_with_forwarded_increment()
    apply_recompute(pipe)
    # The v+1 queue is gone; v still flows.
    assert list(pipe.queues) == [0]
    consumer = pipe.stages[1]
    kinds = [s.kind for s in consumer.all_stmts()]
    assert kinds.count("deq") == 1
    # The consumer recomputes w = v + 1 locally.
    recomputed = [
        s for s in consumer.all_stmts() if s.kind == "assign" and s.op == "add"
    ]
    assert recomputed and recomputed[0].dst == "w"
    assert pipe.meta["recomputed_queues"] == [1]


def test_recompute_still_correct():
    from repro.pipette import Machine, MachineConfig, RunSpec

    a = [3, 0, 2, 1]
    for transform in (False, True):
        pipe = _pipeline_with_forwarded_increment()
        if transform:
            apply_recompute(pipe)
        out = [0] * 4
        res = Machine(MachineConfig()).run(
            RunSpec(pipe, {"a": list(a), "out": out}, {"n": 4})
        )
        assert res.arrays["out"] == [1, 2, 3, 4]  # out[a[i]] = a[i]+1


def test_recompute_skips_load_values():
    """A queued value produced by a load cannot be rematerialized."""
    b0 = ir.IRBuilder()
    with b0.for_("i", 0, "n"):
        b0.load("@a", "i", dst="v")
        b0.enq(0, "v")
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    with b1.for_("i", 0, "n"):
        b1.deq(0, dst="v")
        b1.store("@out", "i", "v")
    s1 = ir.StageProgram(1, "c", b1.finish())
    pipe = ir.PipelineProgram(
        "t", [s0, s1], [ir.QueueSpec(0, ("stage", 0), ("stage", 1))], [],
        {"a": ir.ArrayDecl("a"), "out": ir.ArrayDecl("out")}, ["n"],
    )
    apply_recompute(pipe)
    assert 0 in pipe.queues  # untouched


def test_recompute_requires_operands_in_consumer():
    """w = v + k with k producer-only must keep its queue."""
    b0 = ir.IRBuilder()
    with b0.for_("i", 0, "n"):
        b0.load("@a", "i", dst="k")  # producer-only value
        b0.binop("add", "i", "k", dst="w")
        b0.enq(0, "w")
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    with b1.for_("i", 0, "n"):
        b1.deq(0, dst="w")
        b1.store("@out", "i", "w")
    s1 = ir.StageProgram(1, "c", b1.finish())
    pipe = ir.PipelineProgram(
        "t", [s0, s1], [ir.QueueSpec(0, ("stage", 0), ("stage", 1))], [],
        {"a": ir.ArrayDecl("a"), "out": ir.ArrayDecl("out")}, ["n"],
    )
    apply_recompute(pipe)
    assert 0 in pipe.queues
