"""Architecturally-visible hardware queues (Pipette Sec. III).

Queues are bounded, timestamped FIFOs. An entry carries the cycle at which
it becomes visible to the consumer (enqueue cycle + queue latency); a freed
slot carries the cycle at which the producer may reuse it. This gives exact
full/empty blocking semantics in the event-driven simulation without a
global cycle loop: the i-th enqueue cannot happen before the (i-capacity)-th
entry was dequeued, and a dequeue cannot happen before its entry's enqueue
has propagated.
"""

from collections import deque


class HWQueue:
    """One hardware queue instance bound to a simulation run."""

    __slots__ = (
        "qid",
        "capacity",
        "latency",
        "entries",
        "slot_free",
        "waiting_consumers",
        "waiting_producers",
        "total_enqs",
        "total_deqs",
        "max_occupancy",
        "full_blocks",
        "empty_blocks",
        "tracer",
        "label",
    )

    def __init__(self, qid, capacity, latency, tracer=None, label=None):
        self.qid = qid
        self.capacity = capacity
        self.latency = latency
        self.entries = deque()
        self.slot_free = deque([0.0] * capacity)
        self.waiting_consumers = []
        self.waiting_producers = []
        self.total_enqs = 0
        self.total_deqs = 0
        self.max_occupancy = 0
        self.full_blocks = 0
        self.empty_blocks = 0
        self.tracer = tracer
        self.label = label if label is not None else "q%d" % qid
        if tracer is not None:
            tracer.register_queue(self.label)

    def try_enq(self, now, value, extra_latency=0.0):
        """Attempt an enqueue at cycle ``now``.

        Returns the enqueue completion cycle, or None if the queue is full
        (caller must block until a consumer frees a slot).
        """
        if not self.slot_free:
            self.full_blocks += 1
            return None
        freed_at = self.slot_free.popleft()
        t = freed_at if freed_at > now else now
        self.entries.append((value, t + self.latency + extra_latency))
        self.total_enqs += 1
        if len(self.entries) > self.max_occupancy:
            self.max_occupancy = len(self.entries)
        if self.tracer is not None:
            self.tracer.counter(self.label, t, len(self.entries))
        if self.waiting_consumers:
            waiters, self.waiting_consumers = self.waiting_consumers, []
            for task in waiters:
                task.wake()
        return t

    def try_deq(self, now):
        """Attempt a dequeue at cycle ``now``.

        Returns ``(value, completion_cycle)`` or None if empty.
        """
        if not self.entries:
            self.empty_blocks += 1
            return None
        value, avail = self.entries.popleft()
        t = avail if avail > now else now
        self.slot_free.append(t)
        self.total_deqs += 1
        if self.tracer is not None:
            self.tracer.counter(self.label, t, len(self.entries))
        if self.waiting_producers:
            waiters, self.waiting_producers = self.waiting_producers, []
            for task in waiters:
                task.wake()
        return value, t

    def try_peek(self, now):
        """Like :meth:`try_deq` but leaves the entry in place."""
        if not self.entries:
            return None
        value, avail = self.entries[0]
        return value, (avail if avail > now else now)

    @property
    def occupancy(self):
        return len(self.entries)

    def __repr__(self):
        return "HWQueue(%d, %d/%d)" % (self.qid, len(self.entries), self.capacity)
