"""Reference accelerators: indirect, scan, chaining, control forwarding."""

from repro import ir
from repro.pipette import Machine, MachineConfig, RunSpec


def _pipe(stages, queues, ras, arrays):
    decls = {name: ir.ArrayDecl(name) for name in arrays}
    return ir.PipelineProgram("t", stages, queues, ras, decls, [])


def test_indirect_ra():
    b0 = ir.IRBuilder()
    for idx in (2, 0, 1):
        b0.enq(0, idx)
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    with b1.for_("i", 0, 3):
        v = b1.deq(1)
        b1.store("@out", "i", v)
    s1 = ir.StageProgram(1, "c", b1.finish())
    pipe = _pipe(
        [s0, s1],
        [ir.QueueSpec(0, ("stage", 0), ("ra", 0)), ir.QueueSpec(1, ("ra", 0), ("stage", 1))],
        [ir.RASpec(0, ir.RA_INDIRECT, "@a", 0, 1)],
        {"a": None, "out": None},
    )
    res = Machine(MachineConfig()).run(
        RunSpec(pipe, {"a": [10, 11, 12], "out": [0, 0, 0]}, {})
    )
    assert res.arrays["out"] == [12, 10, 11]
    assert res.stats.ra_loads == 3


def test_scan_ra():
    b0 = ir.IRBuilder()
    b0.enq(0, 1)
    b0.enq(0, 4)  # scan [1, 4)
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    b1.mov(0, dst="acc")
    with b1.for_("i", 0, 3):
        v = b1.deq(1)
        b1.binop("add", "acc", v, dst="acc")
    b1.store("@out", 0, "acc")
    s1 = ir.StageProgram(1, "c", b1.finish())
    pipe = _pipe(
        [s0, s1],
        [ir.QueueSpec(0, ("stage", 0), ("ra", 0)), ir.QueueSpec(1, ("ra", 0), ("stage", 1))],
        [ir.RASpec(0, ir.RA_SCAN, "@a", 0, 1)],
        {"a": None, "out": None},
    )
    res = Machine(MachineConfig()).run(
        RunSpec(pipe, {"a": [100, 1, 2, 3, 100], "out": [0]}, {})
    )
    assert res.arrays["out"] == [6]


def test_chained_ras_bfs_shape():
    """nodes-indirect chained into edges-scan: the paper's BFS chain."""
    nodes = [0, 2, 5]
    edges = [7, 8, 9, 10, 11]
    b0 = ir.IRBuilder()
    for v in (0, 1):
        b0.enq(0, v)
        b0.enq(0, v + 1)
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    with b1.for_("i", 0, 5):
        v = b1.deq(2)
        b1.store("@out", "i", v)
    s1 = ir.StageProgram(1, "c", b1.finish())
    pipe = _pipe(
        [s0, s1],
        [
            ir.QueueSpec(0, ("stage", 0), ("ra", 0)),
            ir.QueueSpec(1, ("ra", 0), ("ra", 1)),
            ir.QueueSpec(2, ("ra", 1), ("stage", 1)),
        ],
        [
            ir.RASpec(0, ir.RA_INDIRECT, "@nodes", 0, 1),
            ir.RASpec(1, ir.RA_SCAN, "@edges", 1, 2),
        ],
        {"nodes": None, "edges": None, "out": None},
    )
    res = Machine(MachineConfig()).run(
        RunSpec(pipe, {"nodes": nodes, "edges": edges, "out": [0] * 5}, {})
    )
    assert res.arrays["out"] == edges


def test_ctrl_forwarded_through_chain():
    b0 = ir.IRBuilder()
    b0.enq(0, 0)
    b0.enq(0, 1)
    b0.enq_ctrl(0, "DONE")
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    b1.mov(0, dst="acc")
    with b1.loop():
        v = b1.deq(1)
        b1.binop("add", "acc", v, dst="acc")
    b1.store("@out", 0, "acc")
    s1 = ir.StageProgram(1, "c", b1.finish(), handlers={1: [ir.Break(1)]})
    pipe = _pipe(
        [s0, s1],
        [ir.QueueSpec(0, ("stage", 0), ("ra", 0)), ir.QueueSpec(1, ("ra", 0), ("stage", 1))],
        [ir.RASpec(0, ir.RA_INDIRECT, "@a", 0, 1)],
        {"a": None, "out": None},
    )
    res = Machine(MachineConfig()).run(RunSpec(pipe, {"a": [5, 6], "out": [0]}, {}))
    assert res.arrays["out"] == [11]


def test_ra_overlaps_memory():
    """An RA keeps ra_mshrs loads in flight: much faster than serialized."""
    import random

    rng = random.Random(0)
    n = 400
    table = [rng.randrange(n) for _ in range(n)]
    data = [rng.randrange(100) for _ in range(n)]

    def run(mshrs):
        b0 = ir.IRBuilder()
        with b0.for_("i", 0, n):
            idx = b0.load("@table", "i")
            b0.enq(0, idx)
        s0 = ir.StageProgram(0, "p", b0.finish())
        b1 = ir.IRBuilder()
        b1.mov(0, dst="acc")
        with b1.for_("i", 0, n):
            v = b1.deq(1)
            b1.binop("add", "acc", v, dst="acc")
        b1.store("@out", 0, "acc")
        s1 = ir.StageProgram(1, "c", b1.finish())
        pipe = _pipe(
            [s0, s1],
            [ir.QueueSpec(0, ("stage", 0), ("ra", 0)), ir.QueueSpec(1, ("ra", 0), ("stage", 1))],
            [ir.RASpec(0, ir.RA_INDIRECT, "@data", 0, 1)],
            {"table": None, "data": None, "out": None},
        )
        from repro.pipette.config import CacheConfig

        cfg = MachineConfig(
            ra_mshrs=mshrs,
            l1=CacheConfig(1024, 2, 4),
            l2=CacheConfig(2048, 4, 12),
            l3_per_core=CacheConfig(4096, 8, 40),
        )
        res = Machine(cfg).run(RunSpec(pipe, {"table": table, "data": data, "out": [0]}, {}))
        assert res.arrays["out"] == [sum(data[i] for i in table)]
        return res.cycles

    assert run(16) < 0.7 * run(1)
