"""Scheduler, barrier, and issue-ledger behaviour."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.pipette import sched
from repro.pipette.queues import HWQueue
from repro.pipette.sched import BLOCKED, BarrierSync, IssueLedger, Scheduler, SharedCells, Task


def _simple_task(name, log, daemon=False):
    task = Task(name, daemon=daemon)
    task.clock_ref = lambda: 0.0

    def gen():
        log.append(name)
        if False:
            yield

    return task, gen()


def test_runs_all_tasks():
    log = []
    sched = Scheduler()
    for name in ("a", "b", "c"):
        task, gen = _simple_task(name, log)
        sched.add(task, gen)
    sched.run()
    assert sorted(log) == ["a", "b", "c"]


def test_producer_consumer_unblocks():
    q = HWQueue(0, 2, 0)
    got = []
    sched = Scheduler()

    consumer = Task("consumer")
    consumer.clock_ref = lambda: 0.0

    def consume():
        while True:
            res = q.try_deq(0.0)
            if res is not None:
                got.append(res[0])
                return
            consumer.block(("deq", 0))
            q.waiting_consumers.append(consumer)
            yield BLOCKED

    producer = Task("producer")
    producer.clock_ref = lambda: 5.0

    def produce():
        q.try_enq(0.0, 42)
        if False:
            yield

    sched.add(consumer, consume())
    sched.add(producer, produce())
    sched.run()
    assert got == [42]


def test_deadlock_detected():
    q = HWQueue(0, 2, 0)
    sched = Scheduler()
    task = Task("stuck")
    task.clock_ref = lambda: 0.0

    def wait_forever():
        while True:
            task.block(("deq", 0))
            q.waiting_consumers.append(task)
            yield BLOCKED

    sched.add(task, wait_forever())
    with pytest.raises(DeadlockError, match="stuck"):
        sched.run()


def test_daemons_do_not_keep_simulation_alive():
    log = []
    sched = Scheduler()
    daemon = Task("ra", daemon=True)
    daemon.clock_ref = lambda: 0.0

    def spin():
        while True:
            daemon.block(("ra-deq", 0))
            yield BLOCKED

    task, gen = _simple_task("main", log)
    sched.add(daemon, spin())
    sched.add(task, gen)
    sched.run()
    assert log == ["main"]


class TestBarrier:
    def test_last_arrival_releases(self):
        t1, t2 = Task("a"), Task("b")
        t1.clock_ref = t2.clock_ref = lambda: 0.0
        barrier = BarrierSync(2, cost=10.0)
        assert barrier.arrive(t1, 100.0) is None
        release = barrier.arrive(t2, 50.0)
        assert release == 110.0  # max arrival + cost
        assert barrier.last_release == 110.0
        assert t1.runnable  # woken

    def test_generation_reuse(self):
        t1, t2 = Task("a"), Task("b")
        t1.clock_ref = t2.clock_ref = lambda: 0.0
        barrier = BarrierSync(2, cost=0.0)
        barrier.arrive(t1, 1.0)
        barrier.arrive(t2, 2.0)
        assert barrier.generation == 1
        barrier.arrive(t1, 5.0)
        assert barrier.arrive(t2, 7.0) == 7.0

    def test_drop_participant_releases_waiters(self):
        t1, t2 = Task("a"), Task("b")
        t1.clock_ref = t2.clock_ref = lambda: 0.0
        barrier = BarrierSync(2, cost=0.0)
        barrier.arrive(t1, 3.0)
        t1.block("barrier")
        barrier.drop_participant()  # t2 finished without arriving
        assert t1.runnable
        assert barrier.last_release == 3.0


class TestIssueLedger:
    def test_capacity_per_cycle(self):
        ledger = IssueLedger(2)
        slots = [ledger.acquire(0.0) for _ in range(5)]
        assert slots == [0.0, 0.0, 1.0, 1.0, 2.0]

    def test_fractional_time_rounds_up(self):
        ledger = IssueLedger(1)
        assert ledger.acquire(2.5) == 3.0

    def test_out_of_order_acquisition(self):
        ledger = IssueLedger(1)
        assert ledger.acquire(10.0) == 10.0
        assert ledger.acquire(0.0) == 0.0  # earlier cycles stay available

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
        shadow = counts(ledger)
        c = math.ceil(t)
        while shadow.get(c, 0) >= width:
            c += 1  # stepping one quiescent cycle at a time
        got = ledger.acquire(t)
        assert got == float(c)
        assert ledger.count(c) == shadow.get(c, 0) + 1


def counts(ledger):
    """``{cycle: count}`` of every cycle the ledger's window holds a nonzero
    count for, read through ``count``: what the ledger knows."""
    window = range(ledger.base, ledger.base + len(ledger.slots))
    return {c: ledger.count(c) for c in window if ledger.count(c)}


class _Sharer:
    """What ``IssueLedger.prune`` reads of a ThreadCtx: ``cursor`` (as of
    the thread's last yield) and ``task.done``. ``clock`` is the live value
    a batch stage keeps in a frame local while it runs."""

    def __init__(self, name):
        self.task = Task(name)
        self.cursor = 0.0
        self.clock = 0.0


class TestLedgerForgets:
    """``prune`` drops exactly the cycles no unfinished sharer can reach."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 4),
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from(["acquire", "acquire", "acquire", "resync", "sweep", "finish"]),
                st.floats(0, 6),
            ),
            max_size=120,
        ),
    )
    def test_pruned_ledger_answers_like_one_that_never_forgets(self, width, k, ops):
        """k threads with monotone clocks interleave arbitrarily; a sweep is
        forced from both call sites (``acquire`` past a zeroed watermark,
        with the running thread's ``cursor`` stale, and ``prune()`` as the
        generated ``resync`` spells it, after writing the running thread's
        clock back to its ``cursor``). Every acquire returns what
        an unpruned shadow returns, and nothing at or above the slowest
        unfinished thread's clock is ever lost — while a sweep leaves nothing
        below it."""
        ledger, shadow = IssueLedger(width), IssueLedger(width)
        sharers = [_Sharer("t%d" % i) for i in range(k)]
        ledger.sharers.extend(sharers)
        running = None
        for who, op, dt in ops:
            ctx = sharers[who % k]
            if ctx.task.done:
                continue
            if ctx is not running:
                if running is not None:
                    running.cursor = running.clock  # the yield's flush
                running = ctx
            if op == "acquire":
                want = shadow.acquire(ctx.clock + dt)
                assert ledger.acquire(ctx.clock + dt) == want
                ctx.clock = want
            elif op == "resync":
                ctx.clock += dt  # a stall moved the clock; resync follows
                ctx.cursor = ctx.clock
                ledger.prune()
                live = [s.clock for s in sharers if not s.task.done]
                assert min(counts(ledger), default=math.inf) >= min(live)
                assert ledger.base == math.ceil(min(live))  # the window starts there
            elif op == "sweep":
                ledger.mark = 0  # the next acquire sweeps
            else:
                ctx.cursor = ctx.clock
                ctx.task.done = True
            live = [s.clock for s in sharers if not s.task.done]
            slowest = min(live) if live else math.inf
            for cycle, count in counts(shadow).items():
                if cycle >= slowest:
                    assert ledger.count(cycle) == count
                else:  # kept exactly, or forgotten
                    assert cycle < ledger.base or ledger.count(cycle) == count
            assert counts(ledger).keys() <= counts(shadow).keys()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.lists(st.floats(0, 200), max_size=80))
    def test_without_sharers_every_cycle_stays(self, width, times):
        """Nobody registered means nobody promised a clock: the ledger of
        ``test_out_of_order_acquisition`` keeps earlier cycles available
        however often a sweep comes due."""
        ledger = IssueLedger(width)
        seen = {}
        for t in times:
            ledger.mark = 0
            c = int(ledger.acquire(t))
            seen[c] = seen.get(c, 0) + 1
            assert counts(ledger) == seen

    def test_a_forgotten_cycle_is_an_error_not_a_free_one(self):
        """Below the window a cycle reads 0, but acquiring it means a thread
        ran behind the clock it promised: that raises instead of indexing
        the window from its end."""
        ledger = IssueLedger(1)
        sharer = _Sharer("t")
        ledger.sharers.append(sharer)
        sharer.cursor = ledger.acquire(10.0)
        ledger.prune()
        assert (ledger.base, ledger.count(3), ledger.count(10)) == (10, 0, 1)
        with pytest.raises(SimulationError, match="cycle 3 was already forgotten"):
            ledger.acquire(3.0)

    def test_sweeps_are_paid_for_by_inserts(self, monkeypatch):
        """The watermark doubles over what a sweep leaves, so a ledger that
        cannot forget yet (a not-yet-started sharer holds the floor at 0)
        is swept O(log n) times over n inserts, not n times — and forgets
        as soon as that sharer is out of the way."""
        sweeps = []

        class Counting(IssueLedger):
            __slots__ = ()

            def prune(self):
                sweeps.append(len(self.slots))
                super().prune()

        monkeypatch.setattr(sched, "PRUNE_SLACK", 0)
        monkeypatch.setattr(sched, "GROW", 1)  # the window grows one cycle per insert
        ledger = Counting(1)
        runner, waiting = _Sharer("runner"), _Sharer("waiting")
        ledger.sharers.extend([runner, waiting])
        for cycle in range(1024):
            runner.cursor = ledger.acquire(float(cycle))
        assert len(ledger.slots) == 1024 and len(sweeps) <= 11
        waiting.task.done = True
        ledger.mark = 0
        ledger.acquire(1024.0)
        assert sorted(counts(ledger)) == [1023, 1024]
        assert (ledger.base, len(ledger.slots)) == (1023, 2)


class TestClockNormalization:
    """Heap keys must never mix int and float clocks.

    Reference accelerators keep an *integer* front clock while stage
    cursors are floats; ``Task.time`` normalizes both to float so heap
    tuples always compare like-typed keys, and the FIFO counter (not task
    identity) breaks exact ties.
    """

    def test_time_is_float_for_int_clock(self):
        task = Task("ra")
        task.clock_ref = lambda: 5  # RA-style integer cycle counter
        assert type(task.time) is float and task.time == 5.0

    def test_time_is_float_before_clock_ref_is_set(self):
        assert type(Task("unbound").time) is float

    def test_heap_order_with_mixed_clock_types_and_ties(self):
        log = []
        sched = Scheduler()
        clocks = {"int-clock": 7, "float-clock": 7.0, "late": 9.5}
        for name, now in clocks.items():
            task = Task(name)
            task.clock_ref = (lambda t: lambda: t)(now)

            def gen(name=name):
                log.append(name)
                if False:
                    yield

            sched.add(task, gen())
        sched.run()
        # equal-time tasks run in push (FIFO) order regardless of clock type
        assert log == ["int-clock", "float-clock", "late"]


def test_shared_cells():
    cells = SharedCells()
    assert cells.read("x") == 0
    cells.write("x", 41)
    assert cells.read("x") == 41
