"""Qualitative timing-model properties: the phenomena the paper builds on.

These tests assert *relations*, not absolute cycle counts: predictable
branches are cheaper than random ones, dependent loads serialize while
independent loads overlap, decoupling hides latency, and prefetching
ahead of use works.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ir
from repro.pipette import Machine, MachineConfig, RunSpec
from repro.pipette.config import CacheConfig
from repro.pipette.interp import ThreadCtx
from repro.pipette.sched import IssueLedger
from repro.pipette.stats import ThreadStats


def _tiny_mem_config(**kw):
    return MachineConfig(
        l1=CacheConfig(1024, 2, 4),
        l2=CacheConfig(4096, 4, 12),
        l3_per_core=CacheConfig(8192, 8, 40),
        prefetch_enabled=False,
        **kw,
    )


def _run_stage(body, arrays, scalars=None, config=None):
    decls = {name: ir.ArrayDecl(name) for name in arrays}
    stage = ir.StageProgram(0, "t", body)
    pipe = ir.PipelineProgram("t", [stage], [], [], decls, list((scalars or {}).keys()))
    machine = Machine(config or MachineConfig())
    return machine.run(RunSpec(pipe, arrays, scalars or {}))


def _branchy_body(flags):
    b = ir.IRBuilder()
    b.mov(0, dst="acc")
    with b.for_("i", 0, len(flags)):
        f = b.load("@flags", "i")
        with b.if_(f):
            b.binop("add", "acc", 1, dst="acc")
    b.store("@out", 0, "acc")
    return b.finish()


def test_random_branches_cost_more_than_biased():
    rng = random.Random(0)
    n = 4000
    random_flags = [rng.randint(0, 1) for _ in range(n)]
    biased_flags = [1] * n
    r_rand = _run_stage(_branchy_body(random_flags), {"flags": random_flags, "out": [0]})
    r_bias = _run_stage(_branchy_body(biased_flags), {"flags": biased_flags, "out": [0]})
    assert r_rand.cycles > 1.5 * r_bias.cycles
    assert sum(t.mispredicts for t in r_rand.stats.threads) > 10 * sum(
        t.mispredicts for t in r_bias.stats.threads
    )


def test_dependent_loads_serialize():
    """A pointer chase costs ~full latency per hop; a gather overlaps."""
    rng = random.Random(1)
    n = 2000
    # A random cycle for the chase (every element visited once).
    perm = list(range(n))
    rng.shuffle(perm)
    chain = [0] * n
    for a, b_ in zip(perm, perm[1:] + perm[:1]):
        chain[a] = b_

    b = ir.IRBuilder()
    b.mov(0, dst="p")
    with b.for_("i", 0, n):
        b.load("@chain", "p", dst="p")
    b.store("@out", 0, "p")
    chase = _run_stage(b.finish(), {"chain": chain, "out": [0]}, config=_tiny_mem_config())

    b = ir.IRBuilder()
    b.mov(0, dst="acc")
    with b.for_("i", 0, n):
        idx = b.load("@idx", "i", dst="j")
        v = b.load("@chain", "j", dst="v")
        b.binop("add", "acc", "v", dst="acc")
    b.store("@out", 0, "acc")
    gather = _run_stage(
        b.finish(), {"idx": perm, "chain": chain, "out": [0]}, config=_tiny_mem_config()
    )
    # Same number of irregular loads; the chase's dependence chain makes it
    # far slower than the MLP-friendly gather.
    assert chase.cycles > 2.0 * gather.cycles


def test_prefetch_hides_latency():
    rng = random.Random(2)
    n = 1500
    idx = [rng.randrange(n) for _ in range(n)]
    data = [rng.randrange(100) for _ in range(n)]

    def body(with_prefetch):
        b = ir.IRBuilder()
        b.mov(0, dst="acc")
        if with_prefetch:
            # Warm each line well before its use.
            with b.for_("w", 0, n):
                j = b.load("@idx", "w", dst="jw")
                b.prefetch("@data", "jw")
        with b.for_("i", 0, n):
            j = b.load("@idx", "i", dst="j")
            v = b.load("@data", "j", dst="v")
            b.binop("add", "acc", "v", dst="acc")
        b.store("@out", 0, "acc")
        return b.finish()

    cfg = MachineConfig(
        l1=CacheConfig(64 * 1024, 8, 4),
        l2=CacheConfig(256 * 1024, 8, 12),
        l3_per_core=CacheConfig(1 << 20, 16, 40),
        prefetch_enabled=False,
    )
    cold = _run_stage(body(False), {"idx": idx, "data": data, "out": [0]}, config=cfg)
    # Per-access latency in the main loop shrinks when lines were warmed;
    # compare the *second* half by giving the warmed variant its prefetch
    # loop for free.
    warm = _run_stage(body(True), {"idx": idx, "data": data, "out": [0]}, config=cfg)
    l1 = warm.stats.cache_levels["L1"]
    assert l1.hits / l1.accesses > 0.5


def test_decoupling_hides_memory_latency():
    """The paper's Sec. I example: an unpredictable branch consuming a
    long-latency load serializes serial execution; decoupling the fetch
    into its own stage restores memory-level parallelism.

    (A branch-free gather does *not* benefit — the OOO model already
    overlaps independent loads — which is itself the correct behavior.)
    """
    rng = random.Random(3)
    n = 3000
    idx = [rng.randrange(n) for _ in range(n)]
    data = [rng.randrange(50) - 25 for _ in range(n)]
    expected = sum(data[j] for j in idx if data[j] > 0)

    serial_b = ir.IRBuilder()
    serial_b.mov(0, dst="acc")
    with serial_b.for_("i", 0, n):
        j = serial_b.load("@idx", "i", dst="j")
        v = serial_b.load("@data", "j", dst="v")
        pos = serial_b.binop("gt", "v", 0)
        with serial_b.if_(pos):  # unpredictable, resolves on the load
            serial_b.binop("add", "acc", "v", dst="acc")
    serial_b.store("@out", 0, "acc")
    serial = _run_stage(
        serial_b.finish(), {"idx": idx, "data": data, "out": [0]}, config=_tiny_mem_config()
    )
    assert serial.arrays["out"] == [expected]

    b0 = ir.IRBuilder()
    with b0.for_("i", 0, n):
        j = b0.load("@idx", "i", dst="j")
        v = b0.load("@data", "j", dst="v")
        b0.enq(0, "v")
    s0 = ir.StageProgram(0, "fetch", b0.finish())
    b1 = ir.IRBuilder()
    b1.mov(0, dst="acc")
    with b1.for_("i", 0, n):
        v = b1.deq(0, dst="v")
        pos = b1.binop("gt", "v", 0)
        with b1.if_(pos):  # same branch, but it resolves on a queue value
            b1.binop("add", "acc", "v", dst="acc")
    b1.store("@out", 0, "acc")
    s1 = ir.StageProgram(1, "filter", b1.finish())
    pipe = ir.PipelineProgram(
        "p",
        [s0, s1],
        [ir.QueueSpec(0, ("stage", 0), ("stage", 1))],
        [],
        {name: ir.ArrayDecl(name) for name in ("idx", "data", "out")},
        [],
    )
    piped = Machine(_tiny_mem_config()).run(
        RunSpec(pipe, {"idx": idx, "data": data, "out": [0]}, {})
    )
    assert piped.arrays["out"] == [expected]
    assert piped.cycles < serial.cycles


def test_queue_stall_attributed():
    """A slow producer shows up as queue stall in the consumer."""
    n = 500
    b0 = ir.IRBuilder()
    b0.mov(1, dst="s")
    with b0.for_("i", 0, n):
        # A loop-carried division chain: ~12 cycles per produced value
        # (latency on the dependence path, not just issue slots).
        t = b0.binop("add", "s", "i")
        b0.binop("div", t, 1, dst="s")
        b0.enq(0, "s")
    s0 = ir.StageProgram(0, "slow", b0.finish())
    b1 = ir.IRBuilder()
    b1.mov(0, dst="acc")
    with b1.for_("i", 0, n):
        v = b1.deq(0, dst="v")
        b1.binop("add", "acc", "v", dst="acc")
    b1.store("@out", 0, "acc")
    s1 = ir.StageProgram(1, "fast", b1.finish())
    pipe = ir.PipelineProgram(
        "p",
        [s0, s1],
        [ir.QueueSpec(0, ("stage", 0), ("stage", 1))],
        [],
        {"out": ir.ArrayDecl("out")},
        [],
    )
    res = Machine(MachineConfig()).run(RunSpec(pipe, {"out": [0]}, {}))
    consumer = next(t for t in res.stats.threads if "fast" in t.name)
    assert consumer.queue_stall > 0.2 * consumer.total_cycles


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(0, 100), min_size=8, max_size=8),
    st.integers(1, 8),
    st.floats(0, 20),
    st.lists(st.tuples(st.floats(0, 200), st.floats(0, 9)), min_size=8, max_size=8),
)
def test_rob_block_guard_covers_the_whole_run(window, k, slack, steps):
    """The batch engine's ROB block guard: retire times enter the ROB in
    non-decreasing order and the cursor never moves back, so ``rob[k-1]
    <= cursor`` at the entry of a run of k <= rob_size retires means
    none of them stalls — whatever they complete at, however far other
    stalls move the cursor in between (also across a ``yield``)."""
    config = MachineConfig(rob_size=8)
    ctx = ThreadCtx(config, 0, IssueLedger(4), None, ThreadStats("t0"), None)
    ctx.rob.extend(sorted(window))  # full, as the engine's prefilled ring
    ctx.rob_last = ctx.rob[-1]
    ctx.cursor = ctx.rob[k - 1] + slack  # the guard holds at run entry
    for completion, advance in steps[:k]:
        ctx.cursor += advance
        before = ctx.cursor
        ctx.retire(completion)
        assert ctx.cursor == before
        assert list(ctx.rob) == sorted(ctx.rob)
    assert ctx.stats.mem_stall == 0.0
