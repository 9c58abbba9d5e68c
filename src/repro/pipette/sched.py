"""Discrete-event scheduler for simulated threads.

Each stage thread and reference accelerator is a :class:`Task` wrapping a
Python generator. Tasks run until they *block* (yielding control when a
queue is full/empty or at a barrier) or finish. The scheduler always resumes
the runnable task with the smallest local clock, which keeps timestamped
resources (issue ledgers, DRAM controllers) consistent, and detects
deadlocks: if no task can run and undone work remains, it reports who is
blocked on what.
"""

import heapq
import math

from ..errors import DeadlockError, SimulationError

#: Yielded by a task generator when it must wait for an external event.
BLOCKED = "blocked"


class Task:
    """A schedulable simulated thread.

    ``daemon`` tasks (reference accelerators) do not keep the simulation
    alive: the run ends when every non-daemon task has finished.
    """

    __slots__ = ("name", "gen", "clock_ref", "runnable", "done", "daemon", "blocked_on", "_sched")

    def __init__(self, name, daemon=False):
        self.name = name
        self.gen = None
        self.clock_ref = None  # callable returning the task's local cycle
        self.runnable = True
        self.done = False
        self.daemon = daemon
        self.blocked_on = None
        self._sched = None

    @property
    def time(self):
        # Always a float: heap keys must never mix int clocks (an RA's
        # integer cycle counter) with float stage cursors, or ordering ties
        # would compare tuples of unlike-typed keys.
        clock = self.clock_ref
        return float(clock()) if clock is not None else 0.0

    def wake(self):
        if not self.done and not self.runnable:
            self.runnable = True
            self.blocked_on = None
            if self._sched is not None:
                self._sched._push(self)

    def block(self, reason):
        self.runnable = False
        self.blocked_on = reason

    def __repr__(self):
        state = "done" if self.done else ("runnable" if self.runnable else "blocked:%s" % (self.blocked_on,))
        return "Task(%s, %s)" % (self.name, state)


class BarrierSync:
    """Synchronizes all participating tasks (paper Sec. IV-A, program phases)."""

    def __init__(self, participants, cost=30.0):
        self.participants = participants
        self.cost = cost
        self.arrived = {}
        self.generation = 0
        self.last_release = 0.0

    def arrive(self, task, now):
        """Register arrival; returns release cycle if this arrival completes
        the barrier, else None (the task must block)."""
        self.arrived[task] = now
        if len(self.arrived) < self.participants:
            return None
        release = max(self.arrived.values()) + self.cost
        waiters = [t for t in self.arrived if t is not task]
        self.arrived = {}
        self.generation += 1
        self.last_release = release
        for t in waiters:
            t.wake()
        return release

    def drop_participant(self):
        """A participating task finished; shrink the barrier.

        If the remaining arrivals now complete a generation, release them.
        """
        self.participants -= 1
        if self.arrived and len(self.arrived) >= self.participants > 0:
            release = max(self.arrived.values()) + self.cost
            waiters = list(self.arrived)
            self.arrived = {}
            self.generation += 1
            self.last_release = release
            for t in waiters:
                t.wake()
            return release
        return None


class SharedCells:
    """Cross-stage scalar cells, coherent only across barriers."""

    def __init__(self):
        self.values = {}

    def read(self, name):
        return self.values.get(name, 0)

    def write(self, name, value):
        self.values[name] = value


class Scheduler:
    """Runs tasks to completion; min-local-time scheduling with wakeups.

    With a :class:`~repro.obs.tracer.Tracer` attached, every residency of a
    task (resume cycle to yield cycle, with the blocking reason) is
    recorded as a span on that task's track; tracing off costs one ``is
    None`` check per resume.
    """

    def __init__(self, tracer=None, topology=None, deadlock_hint=None):
        self.tasks = []
        self._heap = []
        self._counter = 0
        self.tracer = tracer
        #: Optional queue-endpoint topology for deadlock reports:
        #: ``{"task_replica": {task name: replica},
        #:    "producer"/"consumer": {(replica, qid): task name}}``.
        #: With it, a deadlock report names the actual wait cycle
        #: (stage -> queue -> stage chain) instead of just listing waiters.
        self.topology = topology
        #: Optional zero-argument callable returning one extra report line
        #: (the machine wires the static analyzer's verdict through this).
        self.deadlock_hint = deadlock_hint

    def add(self, task, gen):
        task.gen = gen
        task._sched = self
        self.tasks.append(task)
        if self.tracer is not None:
            self.tracer.register_thread(task.name)
        self._push(task)

    def _push(self, task):
        self._counter += 1
        clock = task.clock_ref
        key = float(clock()) if clock is not None else 0.0
        heapq.heappush(self._heap, (key, self._counter, task))

    def run(self, max_resumes=200_000_000):
        pending = sum(1 for t in self.tasks if not t.daemon)
        resumes = 0
        tracer = self.tracer
        heap = self._heap
        next_task = None
        while pending > 0:
            if next_task is not None:
                task, next_task = next_task, None
            else:
                task = self._pop_runnable()
                if task is None:
                    self._report_deadlock()
            resumes += 1
            if resumes > max_resumes:
                raise DeadlockError("simulation exceeded %d task resumes; likely livelock" % max_resumes)
            if tracer is not None:
                resumed_at = task.time
            try:
                task.gen.send(None)
            except StopIteration:
                task.done = True
                task.runnable = False
                if tracer is not None:
                    tracer.span(task.name, resumed_at, task.time, "done")
                if not task.daemon:
                    pending -= 1
            else:
                # The generator yielded BLOCKED; it has already registered
                # itself as a waiter (queue list or barrier) before yielding.
                if tracer is not None:
                    reason = "preempted" if task.runnable else task.blocked_on
                    tracer.span(task.name, resumed_at, task.time, reason)
                if task.runnable:
                    # Woken while blocking (enq/deq raced with wake): rerun.
                    # Lazy re-push: while the task's clock is strictly below
                    # every heap key it would be popped right back, so skip
                    # the push/pop pair. Strictness matters — at equal times
                    # the earlier-pushed entry must win the counter tie-break.
                    if not heap or task.time < heap[0][0]:
                        next_task = task
                    else:
                        self._push(task)

    def teardown(self):
        """Drop the links only a *running* simulation needs.

        Each task closes a loop with the state it schedules (``clock_ref``
        closes over the thread context that owns the task; a daemon RA's
        never-finished generator frame holds its engine, which holds the
        task; every task points back here). Cutting them when the run ends
        — normally or by exception — lets plain reference counting free
        the whole simulation as soon as its result is dropped.
        """
        for task in self.tasks:
            if task.gen is not None:
                task.gen.close()
            task.gen = None
            task.clock_ref = None
            task._sched = None
        self._heap.clear()

    def _pop_runnable(self):
        while self._heap:
            _, _, task = heapq.heappop(self._heap)
            if task.runnable and not task.done:
                return task
        return None

    def _report_deadlock(self):
        blocked = [t for t in self.tasks if not t.done and not t.runnable and not t.daemon]
        lines = ["all threads blocked:"]
        for t in blocked:
            lines.append("  %s waiting on %s at cycle %.0f" % (t.name, t.blocked_on, t.time))
        chain = self._wait_chain(blocked)
        if chain:
            lines.append("wait cycle: %s" % chain)
        if self.deadlock_hint is not None:
            hint = self.deadlock_hint()
            if hint:
                lines.append(hint)
        raise DeadlockError("\n".join(lines))

    def _peer_of(self, task):
        """The task that ``task``'s blocking reason is waiting on, plus an
        edge label — blocked on a full queue waits for its consumer, blocked
        on an empty queue waits for its producer."""
        reason = task.blocked_on
        if self.topology is None or not isinstance(reason, tuple) or len(reason) != 2:
            return None, None
        kind, key = reason
        replica = self.topology.get("task_replica", {}).get(task.name)
        if kind in ("enq", "ra-enq"):
            peer = self.topology.get("consumer", {}).get((replica, key))
            label = "enq q%s" % key
        elif kind in ("deq", "peek", "ra-deq"):
            peer = self.topology.get("producer", {}).get((replica, key))
            label = "%s q%s" % ("deq" if kind != "peek" else "peek", key)
        else:
            return None, None  # barriers wait on everyone, not one peer
        return peer, label

    def _wait_chain(self, blocked):
        """Chase blocked-on edges to find and render a wait cycle, if any."""
        by_name = {t.name: t for t in self.tasks}
        for start in blocked:
            visited = []  # [(task, edge label)] along the chase
            names = {}
            task = start
            while task is not None and not task.done and not task.runnable:
                if task.name in names:
                    cycle = visited[names[task.name]:]
                    parts = ["%s -(%s)->" % (t.name, lbl) for t, lbl in cycle]
                    return " ".join(parts + [cycle[0][0].name])
                peer_name, label = self._peer_of(task)
                if peer_name is None:
                    break
                names[task.name] = len(visited)
                visited.append((task, label))
                task = by_name.get(peer_name)
        return None


#: Cycles an :class:`IssueLedger`'s window may span before its first sweep,
#: and the headroom above twice the span each sweep leaves.
PRUNE_SLACK = 4096

#: Free cycles a window grows by past the one it had to reach, so a thread
#: issuing at the window's end extends it once per this many cycles.
GROW = 1024


class IssueLedger:
    """Per-core shared issue bandwidth: ``width`` micro-ops per cycle.

    ``acquire(t)`` returns the first cycle >= t with a free slot and
    consumes it. Threads at different local times share one ledger, which is
    what models SMT contention among co-scheduled pipeline stages.

    The counts live in a byte window: ``slots[i]`` is the number of
    micro-ops issued in cycle ``base + i``, and a cycle outside
    ``[base, base + len(slots))`` counts 0 (:meth:`count`). A cycle of
    spread costs one byte, which is why ``MachineConfig`` caps
    ``issue_width`` at 255.

    ``sharers`` are the thread contexts issuing through this ledger. A
    thread never acquires below its own clock, so a cycle below every
    unfinished sharer's clock can never be read again and :meth:`prune`
    forgets it: the window follows the spread between its threads, not the
    length of the simulation. Without sharers nothing is known about who
    may still come, and every cycle stays.
    """

    __slots__ = ("width", "slots", "base", "sharers", "mark")

    def __init__(self, width):
        self.width = width
        self.slots = bytearray()
        self.base = 0
        self.sharers = []
        #: ``len(slots)`` beyond which the next acquire or resync sweeps.
        self.mark = PRUNE_SLACK

    def count(self, c):
        """Micro-ops issued in cycle ``c`` so far."""
        i = c - self.base
        return self.slots[i] if 0 <= i < len(self.slots) else 0

    def acquire(self, t):
        c = int(t)
        if c < t:
            c += 1
        slots = self.slots
        width = self.width
        i = c - self.base
        if not 0 <= i < len(slots):
            self.grow(i)
        while slots[i] >= width:
            i += 1
            if i == len(slots):
                self.grow(i)
        slots[i] += 1
        c = self.base + i
        if len(slots) > self.mark:
            self.prune()
        return float(c)

    def grow(self, i):
        """Extend the window with free cycles until it holds index ``i``."""
        if i < 0:
            raise SimulationError(
                "issue ledger: cycle %d was already forgotten (window starts at %d)"
                % (self.base + i, self.base)
            )
        self.slots.extend(bytes(i + GROW - len(self.slots)))

    def prune(self):
        """Forget every cycle below the cursor of every unfinished sharer.

        A suspended thread's ``cursor`` is exact, and the running thread's is
        at or below the cycle it probes: the reference interpreter and the
        fast path advance it after ``acquire`` returns, and a batch stage
        writes its live clock back before it calls this (generated
        ``resync``). The window loses its prefix in place and ``base``
        moves to the first cycle kept (generated stage code holds ``slots``
        and re-derives its index from ``base`` after a sweep), and the
        watermark doubles over what is left so all sweeps together cost no
        more than the growth between them.
        """
        slots = self.slots
        live = [ctx.cursor for ctx in self.sharers if not ctx.task.done]
        if live:
            k = math.ceil(min(live)) - self.base
            if k > 0:
                del slots[:k]
                self.base += k
        self.mark = 2 * len(slots) + PRUNE_SLACK
