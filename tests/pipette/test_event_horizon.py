"""Property tests for the ``next_event_cycle`` event-horizon contracts.

The batch-advance engine never steps the clock cycle by cycle: every
resource exposes a pure query returning the next cycle at which something
can happen, and the engine jumps straight to it. These properties pin the
contract that makes the jump sound — *skipping N quiescent cycles is
indistinguishable from stepping N times*: for every cycle strictly before
the reported horizon the resource is unavailable (stepping would observe no
transition), at the horizon it is available, and acting early completes at
exactly the horizon (the skip changes no timestamp).

Covered resources: :class:`HWQueue` (both endpoints), the
:class:`ThreadCtx` MSHR and ROB timers, the :class:`IssueLedger`
scoreboard, :class:`BarrierSync`, and the DRAM bandwidth windows.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipette import MachineConfig
from repro.pipette.interp import ThreadCtx
from repro.pipette.mem import MemorySystem
from repro.pipette.queues import HWQueue
from repro.pipette.sched import BarrierSync, IssueLedger, Scheduler, Task
from repro.pipette.stats import SimStats


def _queue_with_traffic(ops, capacity, latency):
    """Replay an op sequence to land a queue in an arbitrary live state."""
    q = HWQueue(0, capacity, latency)
    clock = 0
    for kind, gap in ops:
        clock += gap
        if kind == "enq":
            q.try_enq(clock, clock)
        else:
            q.try_deq(clock)
    return q, clock


queue_ops = st.lists(
    st.tuples(st.sampled_from(["enq", "deq"]), st.integers(0, 7)),
    min_size=0, max_size=20,
)


class TestQueueHorizon:
    @settings(max_examples=60, deadline=None)
    @given(queue_ops, st.integers(1, 4), st.integers(0, 5), st.integers(0, 30))
    def test_deq_horizon_equals_stepping(self, ops, capacity, latency, gap):
        q, clock = _queue_with_traffic(ops, capacity, latency)
        now = clock + gap
        horizon = q.next_deq_cycle(now)
        if horizon is None:
            # Quiescent: only an enqueue can unblock the consumer; no
            # amount of waiting changes that.
            assert not q.entries
            assert q.try_peek(now) is None
            return
        # Stepping one cycle at a time: at every cycle before the horizon a
        # dequeue would still complete at the horizon (nothing to observe),
        # never earlier.
        step = now
        while True:
            peek = q.try_peek(step)
            assert peek is not None
            assert peek[1] == max(horizon, step)
            if peek[1] <= step:
                break
            step += 1
        assert step == max(horizon, now)
        # Acting at ``now`` directly completes at the same cycle the
        # stepped consumer reached: the skip is exact, and it is what
        # try_deq's own ``avail if avail > now else now`` computes.
        value, done = q.try_deq(now)
        assert done == horizon

    @settings(max_examples=60, deadline=None)
    @given(queue_ops, st.integers(1, 4), st.integers(0, 5), st.integers(0, 30))
    def test_enq_horizon_equals_stepping(self, ops, capacity, latency, gap):
        q, clock = _queue_with_traffic(ops, capacity, latency)
        now = clock + gap
        horizon = q.next_enq_cycle(now)
        if horizon is None:
            # Full: only a dequeue frees a slot; waiting cannot.
            assert not q.slot_free
            assert q.try_enq(now, 0) is None
            return
        step = now
        while q.slot_free[0] > step:
            step += 1
        assert step == max(horizon, now)
        t = q.try_enq(now, 0)
        assert t == horizon

    @settings(max_examples=60, deadline=None)
    @given(queue_ops, st.integers(1, 4), st.integers(0, 5), st.integers(0, 30))
    def test_event_horizon_is_min_of_endpoints(self, ops, capacity, latency, gap):
        q, clock = _queue_with_traffic(ops, capacity, latency)
        now = clock + gap
        d = q.next_deq_cycle(now)
        e = q.next_enq_cycle(now)
        both = [h for h in (d, e) if h is not None]
        assert q.next_event_cycle(now) == (min(both) if both else None)


class _StubStats:
    """Just enough surface for the ThreadCtx scoreboard methods."""

    def __init__(self):
        self.name = "t0"
        self.mem_stall = 0.0


def _ctx(cursor, **config):
    ctx = ThreadCtx(MachineConfig(**config), 0, IssueLedger(4), None, _StubStats(), None)
    ctx.cursor = float(cursor)
    return ctx


class TestThreadHorizon:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0, 100), min_size=0, max_size=40),
        st.integers(0, 60),
    )
    def test_mshr_horizon_equals_claim_stall(self, completions, cursor):
        ctx = _ctx(cursor)
        for done in sorted(completions):
            ctx.mshr.append(done)
        full = len(ctx.mshr) >= ctx.config.mshrs
        horizon = ctx.next_event_cycle()
        expected = ctx.cursor
        if full and ctx.mshr[0] > expected:
            expected = ctx.mshr[0]
        assert horizon == expected
        # Acting: one claim stalls the cursor exactly to the horizon — the
        # per-cycle wait the contract summarizes — and charges the stall.
        before = ctx.cursor
        ctx.mshr_claim(200.0)
        if full:
            assert ctx.cursor == max(horizon, before)
            assert ctx.stats.mem_stall == ctx.cursor - before
        else:
            assert ctx.cursor == before

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0, 100), min_size=0, max_size=80),
        st.integers(0, 60),
    )
    def test_rob_horizon_equals_retire_stall(self, completions, cursor):
        ctx = _ctx(cursor)
        for done in sorted(completions):
            ctx.rob.append(done)
        full = len(ctx.rob) >= ctx.rob_size
        horizon = ctx.next_event_cycle()
        expected = ctx.cursor
        if full and ctx.rob[0] > expected:
            expected = ctx.rob[0]
        assert horizon == expected
        before = ctx.cursor
        ctx.retire(500.0)
        if full:
            assert ctx.cursor == max(horizon, before)
        else:
            assert ctx.cursor == before

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(0, 100), min_size=8, max_size=8),
        st.integers(1, 8),
        st.floats(0, 20),
        st.lists(st.tuples(st.floats(0, 200), st.floats(0, 9)), min_size=8, max_size=8),
    )
    def test_rob_block_guard_covers_the_whole_run(self, window, k, slack, steps):
        """The batch engine's ROB block guard: retire times enter the ROB in
        non-decreasing order and the cursor never moves back, so ``rob[k-1]
        <= cursor`` at the entry of a run of k <= rob_size retires means
        none of them stalls — whatever they complete at, however far other
        stalls move the cursor in between (also across a ``yield``)."""
        ctx = _ctx(0, rob_size=8)
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


class TestLedgerScoreboard:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4),
        st.lists(st.floats(0, 40), min_size=0, max_size=60),
        st.floats(0, 50),
    )
    def test_acquire_equals_per_cycle_scan(self, width, warmup, t):
        """The ledger's closed-form slot probe == scanning cycle by cycle."""
        ledger = IssueLedger(width)
        for w in warmup:
            ledger.acquire(w)
        # Naive per-cycle model of the same scoreboard state.
        shadow = dict(ledger.slots)
        c = math.ceil(t)
        while shadow.get(c, 0) >= width:
            c += 1  # stepping one quiescent cycle at a time
        got = ledger.acquire(t)
        assert got == float(c)
        assert ledger.slots[c] == shadow.get(c, 0) + 1


class TestBarrierHorizon:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 50), min_size=2, max_size=5),
        st.integers(0, 80),
    )
    def test_release_horizon(self, arrivals, now):
        barrier = BarrierSync(len(arrivals), cost=30.0)
        tasks = [Task("t%d" % i) for i in range(len(arrivals))]
        release = None
        for task, when in zip(tasks, arrivals):
            if barrier.arrived:
                # While a generation is open, time alone releases nobody:
                # arrivals, not cycles, complete the barrier.
                assert barrier.next_event_cycle(now) is None
            release = barrier.arrive(task, float(when))
        assert release == max(arrivals) + 30.0
        # Closed generation: the horizon is the release cycle every waiter
        # was told, clamped below by the querying clock.
        assert barrier.next_event_cycle(now) == max(release, now)


class TestSchedulerHorizon:
    def test_horizon_matches_next_resume_and_is_pure(self):
        sched = Scheduler()

        def gen():
            yield

        clocks = {"a": 5.0, "b": 2.0, "c": 9.0}
        tasks = {}
        for name, when in clocks.items():
            task = Task(name)
            task.clock_ref = (lambda w: (lambda: w))(when)
            sched.add(task, gen())
            tasks[name] = task
        # Dead entries (blocked tasks) are pruned; the live minimum wins.
        tasks["b"].block("deq")
        assert sched.next_event_horizon() == 5.0
        # Pure query: asking again returns the same answer, and the popper
        # still finds the same task at that cycle.
        assert sched.next_event_horizon() == 5.0
        popped = sched._pop_runnable()
        assert popped is tasks["a"] and popped.time == 5.0

    def test_horizon_none_when_nothing_runnable(self):
        sched = Scheduler()

        def gen():
            yield

        task = Task("only")
        task.clock_ref = lambda: 3.0
        sched.add(task, gen())
        task.block("enq")
        assert sched.next_event_horizon() is None


class TestDramWindows:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 40)),
            min_size=1, max_size=60,
        )
    )
    def test_window_horizon_predicts_queue_delay(self, accesses):
        """The pure window query == the delay ``_dram`` actually charges."""
        config = MachineConfig()
        mem = MemorySystem(config, SimStats())
        clock = 0.0
        for line, gap in accesses:
            clock += gap
            predicted = mem.next_dram_window_cycle(line, clock)
            assert predicted >= clock
            latency = mem._dram(line, clock)
            assert latency == (predicted - clock) + config.dram_latency
