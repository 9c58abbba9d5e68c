"""RA pass edge cases beyond the BFS happy path."""

from repro import ir
from repro.core.accelerate import apply_reference_accelerators


def _pipe(stages, queues, arrays=("a", "out")):
    decls = {name: ir.ArrayDecl(name) for name in arrays}
    return ir.PipelineProgram("t", stages, queues, [], decls, ["n"])


def test_whole_loop_stream_becomes_scan():
    """A loop that only streams a[i] collapses into a single scan request."""
    b0 = ir.IRBuilder()
    with b0.for_("i", 0, "n"):
        v = b0.load("@a", "i", dst="v")
        b0.enq(0, "v")
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    with b1.for_("i", 0, "n"):
        b1.deq(0, dst="x")
        b1.store("@out", "i", "x")
    s1 = ir.StageProgram(1, "c", b1.finish())
    pipe = _pipe([s0, s1], [ir.QueueSpec(0, ("stage", 0), ("stage", 1))])
    apply_reference_accelerators(pipe)
    assert len(pipe.ras) == 1
    assert pipe.ras[0].mode == ir.RA_SCAN
    enq_values = [s.value for s in pipe.stages[0].all_stmts() if s.kind == "enq"]
    assert enq_values == [0, "n"]  # one (start, end) pair replaces the loop


def test_indirect_pattern_offloaded():
    b0 = ir.IRBuilder()
    with b0.for_("i", 0, "n"):
        idx = b0.load("@idx", "i", dst="j")
        v = b0.load("@a", "j", dst="v")
        b0.enq(0, "v")
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    with b1.for_("i", 0, "n"):
        b1.deq(0, dst="x")
        b1.store("@out", "i", "x")
    s1 = ir.StageProgram(1, "c", b1.finish())
    pipe = _pipe(
        [s0, s1],
        [ir.QueueSpec(0, ("stage", 0), ("stage", 1))],
        arrays=("a", "idx", "out"),
    )
    apply_reference_accelerators(pipe)
    indirect = [ra for ra in pipe.ras if ra.mode == ir.RA_INDIRECT]
    assert indirect and indirect[0].array == "@a"
    # The producer now enqueues the *index* into the RA's input queue.
    loads_a = [
        s for s in pipe.stages[0].all_stmts() if s.kind == "load" and s.array == "@a"
    ]
    assert not loads_a


def test_value_with_other_uses_not_offloaded():
    b0 = ir.IRBuilder()
    with b0.for_("i", 0, "n"):
        v = b0.load("@a", "i", dst="v")
        b0.enq(0, "v")
        b0.store("@out", "i", "v")  # second use blocks offload
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    with b1.for_("i", 0, "n"):
        b1.deq(0, dst="x")
    s1 = ir.StageProgram(1, "c", b1.finish())
    pipe = _pipe([s0, s1], [ir.QueueSpec(0, ("stage", 0), ("stage", 1))])
    apply_reference_accelerators(pipe)
    assert pipe.ras == []


def test_pointer_array_not_offloaded():
    """RAs are configured with static bases: pointer-register loads stay."""
    b0 = ir.IRBuilder()
    b0.mov("@a", dst="ptr")
    with b0.for_("i", 0, "n"):
        v = b0.load("ptr", "i", dst="v")
        b0.enq(0, "v")
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    with b1.for_("i", 0, "n"):
        b1.deq(0, dst="x")
    s1 = ir.StageProgram(1, "c", b1.finish())
    pipe = _pipe([s0, s1], [ir.QueueSpec(0, ("stage", 0), ("stage", 1))])
    apply_reference_accelerators(pipe)
    assert pipe.ras == []


def test_mixed_queue_not_offloaded():
    """A queue also fed by non-load values cannot move behind an RA."""
    b0 = ir.IRBuilder()
    with b0.for_("i", 0, "n"):
        v = b0.load("@a", "i", dst="v")
        b0.enq(0, "v")
        b0.enq(0, "i")  # raw data interleaved
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    with b1.for_("i", 0, "n"):
        b1.deq(0, dst="x")
        b1.deq(0, dst="y")
    s1 = ir.StageProgram(1, "c", b1.finish())
    pipe = _pipe([s0, s1], [ir.QueueSpec(0, ("stage", 0), ("stage", 1))])
    apply_reference_accelerators(pipe)
    assert pipe.ras == []


def test_scan_pattern_offloaded():
    b0 = ir.IRBuilder()
    with b0.for_("i", 0, "n"):
        lo = b0.load("@bounds", "i", dst="lo")
        hi = b0.load("@bounds", b0.binop("add", "i", 1), dst="hi")
        with b0.for_("e", "lo", "hi"):
            x = b0.load("@a", "e", dst="x")
            b0.enq(0, "x")
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    with b1.loop():
        b1.deq(0, dst="v")
    s1 = ir.StageProgram(1, "c", b1.finish(), handlers={0: [ir.Break(1)]})
    pipe = _pipe(
        [s0, s1],
        [ir.QueueSpec(0, ("stage", 0), ("stage", 1))],
        arrays=("a", "bounds", "out"),
    )
    apply_reference_accelerators(pipe)
    scan = [ra for ra in pipe.ras if ra.mode == ir.RA_SCAN]
    assert scan and scan[0].array == "@a"
    # The inner For was replaced by a bounds pair.
    inner_fors = [
        s for s in pipe.stages[0].all_stmts() if s.kind == "for" and s.var == "e"
    ]
    assert not inner_fors


def test_ra_budget_respected():
    stages = []
    queues = []
    b0 = ir.IRBuilder()
    with b0.for_("i", 0, "n"):
        for q in range(6):
            b0.load("@a", "i", dst="v%d" % q)
            b0.enq(q, "v%d" % q)
    stages.append(ir.StageProgram(0, "p", b0.finish()))
    b1 = ir.IRBuilder()
    with b1.for_("i", 0, "n"):
        for q in range(6):
            b1.deq(q, dst="x%d" % q)
    stages.append(ir.StageProgram(1, "c", b1.finish()))
    queues = [ir.QueueSpec(q, ("stage", 0), ("stage", 1)) for q in range(6)]
    pipe = _pipe(stages, queues)
    apply_reference_accelerators(pipe)
    assert len(pipe.ras) <= 4
