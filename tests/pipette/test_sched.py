"""Scheduler, barrier, and issue-ledger behaviour."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError
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
        shadow = dict(ledger.slots)
        c = math.ceil(t)
        while shadow.get(c, 0) >= width:
            c += 1  # stepping one quiescent cycle at a time
        got = ledger.acquire(t)
        assert got == float(c)
        assert ledger.slots[c] == shadow.get(c, 0) + 1


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
