"""Reference accelerator (RA) engines (Pipette Sec. III, "Offloading
memory accesses").

An RA is a runtime-configured FSM that interposes on the queue interface:
it dequeues values from its input queue, launches the configured memory
accesses (INDIRECT: value is an index; SCAN: value pairs are start/end of a
linear sweep), and delivers loaded elements *in order* to its output queue.
It can keep several loads in flight (``ra_mshrs``), which is where the
memory-level parallelism of a decoupled pipeline comes from.

Chaining (the paper's extension for e.g. BFS's nodes->edges indirection
sequence) needs no special support here: a chained RA is simply an RA whose
input queue is another RA's output queue.

RAs run as daemon tasks: they loop forever and the simulation ends when all
stage threads are done. Control values are forwarded downstream unchanged
so end-of-stream markers survive offloading.

``run()`` is a single generator with the queue fast paths inlined: an RA
moves one value per resume in steady state, so paying a fresh sub-generator
(plus ``yield from`` plumbing) per value tripled the interpreter overhead
of every offloaded load. Only the *blocked* branches remain loops around
``yield BLOCKED``; the logic and timing arithmetic are unchanged.

Hot engine state lives in frame locals while the generator runs: the front
clock (externally visible through ``task.clock_ref``), the in-order
delivery watermark, and the shared counters (``ra_loads``, queue
enq/deq totals, output occupancy high-water). Locals are flushed back
before **every** ``yield`` — the only points where the scheduler, other
tasks, or stats collection can observe the engine — so external state is
reference-identical at every observable instant. Counters flush additively
(``+=`` deltas / max-merge) because the blocked retry paths go through the
real queue methods, which update the shared attributes directly.
"""

from collections import deque

from ..errors import SimulationError
from ..ir.program import RA_INDIRECT, RA_SCAN
from ..ir.values import Ctrl, is_control
from .sched import BLOCKED


class RAEngine:
    """One reference accelerator instance bound to a simulation run."""

    def __init__(self, spec, env, task):
        self.spec = spec
        self.env = env
        self.task = task
        self.clock = 0.0
        self.inflight = deque()  # completion times of outstanding loads
        self.last_delivery = 0.0
        self.tracer = env.machine.tracer

    def _flush(self, clock, last_del, ral, ind, oute, out_mo):
        """Write ``run``'s frame-local mirrors back (see the module
        docstring); the caller zeroes its three deltas afterwards."""
        env = self.env
        out_queue = env.queues[self.spec.out_queue]
        self.clock = clock
        self.last_delivery = last_del
        env.stats.ra_loads += ral
        env.queues[self.spec.in_queue].total_deqs += ind
        out_queue.total_enqs += oute
        if out_mo > out_queue.max_occupancy:
            out_queue.max_occupancy = out_mo

    def run(self):
        """Main RA loop (a daemon task generator).

        ``self.clock`` is the engine's *front* clock: it advances with input
        consumption and load issue, throttled only by the MSHR bound, so up
        to ``ra_mshrs`` loads overlap — the memory-level parallelism an RA
        exists to provide. Deliveries carry their own (in-order) timestamps.
        """
        env = self.env
        spec = self.spec
        task = self.task
        in_queue = env.queues[spec.in_queue]
        out_queue = env.queues[spec.out_queue]
        try_deq = in_queue.try_deq
        try_enq = out_queue.try_enq
        deq_block = ("ra-deq", in_queue.qid)
        enq_block = ("ra-enq", out_queue.qid)
        binding = env.arrays.get(spec.array[1:] if spec.array.startswith("@") else spec.array)
        if binding is None:
            raise SimulationError("RA %d bound to unknown array %s" % (spec.raid, spec.array))
        scan = spec.mode == RA_SCAN
        if not scan and spec.mode != RA_INDIRECT:
            raise SimulationError("RA %d: unknown mode %r" % (spec.raid, spec.mode))
        tracer = self.tracer
        tname = task.name
        flush = self._flush
        inflight = self.inflight
        mshr_cap = env.machine.config.ra_mshrs
        core = env.core
        base = binding.base
        esize = binding.elem_size
        data = binding.data
        sname = binding.name
        # Inline L1 hit side + prefetch observation (MemorySystem.access);
        # everything past an L1 hit is mem.py's (MemorySystem.l1_miss).
        mem = env.machine.mem
        mcfg = mem.config
        shift = mem.LINE_SHIFT
        l1 = mem.l1[core]
        l1_sets = l1.sets
        scount = l1.sets_count
        l1_stats = l1.stats
        l1_lat = mcfg.l1.latency
        l1_miss = mem.l1_miss
        pf_on = mcfg.prefetch_enabled
        pf_deg = mcfg.prefetch_degree
        pf_streams = mem.prefetchers[core].streams
        max_stride = mem.prefetchers[core].MAX_STRIDE
        prefetch_one = mem._prefetch
        # Inline queue fast paths (queues.py try_deq/try_enq): the RA moves
        # one value per iteration in steady state, so the per-value call
        # overhead is pure dispatch tax. Blocked/retry paths keep the calls.
        in_entries = in_queue.entries
        in_slot_free = in_queue.slot_free
        in_tracer = in_queue.tracer
        out_slot_free = out_queue.slot_free
        out_entries = out_queue.entries
        out_lat = out_queue.latency
        out_tracer = out_queue.tracer
        # Frame-local engine state + shared-counter deltas (see module
        # docstring); flushed before every yield.
        clock = self.clock
        last_del = self.last_delivery
        ral = 0  # stats.ra_loads delta
        ind = 0  # in_queue.total_deqs delta
        oute = 0  # out_queue.total_enqs delta
        out_mo = out_queue.max_occupancy

        while True:
            # deq one input value (blocking); try_deq inlined
            if in_entries:
                value, avail = in_entries.popleft()
                t = avail if avail > clock else clock
                in_slot_free.append(t)
                ind += 1
                if in_tracer is not None:
                    in_tracer.counter(in_queue.label, t, len(in_entries))
                if in_queue.waiting_producers:
                    waiters = in_queue.waiting_producers
                    in_queue.waiting_producers = []
                    for waiter in waiters:
                        waiter.wake()
            else:
                in_queue.empty_blocks += 1
                flush(clock, last_del, ral, ind, oute, out_mo)
                ral = ind = oute = 0
                res = None
                while res is None:
                    task.block(deq_block)
                    in_queue.waiting_consumers.append(task)
                    yield BLOCKED
                    res = try_deq(clock)
                value, t = res
            if t > clock:
                clock = t

            if type(value) is Ctrl:
                if spec.forward_ctrl:
                    # forward the marker downstream (blocking enq)
                    t = try_enq(clock, value)
                    if t is None:
                        flush(clock, last_del, ral, ind, oute, out_mo)
                        ral = ind = oute = 0
                        while t is None:
                            task.block(enq_block)
                            out_queue.waiting_producers.append(task)
                            yield BLOCKED
                            t = try_enq(clock, value)
                    if t > clock:
                        clock = t
                continue

            if scan:
                # second half of the (start, end) pair
                res = try_deq(clock)
                if res is None:
                    flush(clock, last_del, ral, ind, oute, out_mo)
                    ral = ind = oute = 0
                    while res is None:
                        task.block(deq_block)
                        in_queue.waiting_consumers.append(task)
                        yield BLOCKED
                        res = try_deq(clock)
                end, t = res
                if t > clock:
                    clock = t
                if is_control(end):
                    raise SimulationError(
                        "RA %d (scan): control value arrived mid-pair" % spec.raid
                    )
                indices = range(value, end)
            else:
                indices = (value,)

            for index in indices:
                # issue one load: MSHR throttle, L1 lookup, in-order delivery
                if len(inflight) >= mshr_cap:
                    oldest = inflight.popleft()
                    if oldest > clock:
                        clock = oldest
                start = clock
                addr = base + index * esize
                line = addr >> shift
                sindex = line % scount
                tag = line // scount
                entry = l1_sets.get(sindex)
                if entry is not None and entry[0] == tag:
                    l1_stats.hits += 1
                    latency = l1_lat
                elif entry is not None and tag in entry:
                    pos = entry.index(tag, 1)
                    del entry[pos]
                    entry.insert(0, tag)
                    l1_stats.hits += 1
                    latency = l1_lat
                else:
                    latency = l1_miss(core, line, start, sindex, tag, entry)
                if pf_on:
                    # stride observe (_StreamTable.observe, mem.py), inlined
                    sentry = pf_streams.get(sname)
                    if sentry is None:
                        pf_streams[sname] = (line, 0, 0)
                    else:
                        last_line, pstride, prun = sentry
                        delta = line - last_line
                        if delta != 0:
                            if delta == pstride and 0 < abs(pstride) <= max_stride:
                                prun = prun + 1 if prun < 8 else 8
                                pf_streams[sname] = (line, pstride, prun)
                                if prun >= 2:
                                    later = start + latency
                                    for k in range(1, pf_deg + 1):
                                        prefetch_one(core, line + pstride * k, later)
                            else:
                                pf_streams[sname] = (line, delta, 1)
                completion = start + latency
                if tracer is not None:
                    tracer.ra_load(tname, start, completion)
                inflight.append(completion)
                clock += 1  # one engine slot per accepted request
                try:
                    loaded = data[index]
                except IndexError:
                    raise SimulationError(
                        "RA %d: load %s[%d] out of bounds (len %d)"
                        % (spec.raid, spec.array, index, len(data))
                    )
                delivery = last_del
                if completion > delivery:
                    delivery = completion
                ral += 1
                # enq the delivery (blocking); try_enq inlined
                if out_slot_free:
                    freed_at = out_slot_free.popleft()
                    t = freed_at if freed_at > delivery else delivery
                    out_entries.append((loaded, t + out_lat))
                    oute += 1
                    occupancy = len(out_entries)
                    if occupancy > out_mo:
                        out_mo = occupancy
                    if out_tracer is not None:
                        out_tracer.counter(out_queue.label, t, occupancy)
                    if out_queue.waiting_consumers:
                        waiters = out_queue.waiting_consumers
                        out_queue.waiting_consumers = []
                        for waiter in waiters:
                            waiter.wake()
                else:
                    out_queue.full_blocks += 1
                    flush(clock, last_del, ral, ind, oute, out_mo)
                    ral = ind = oute = 0
                    t = None
                    while t is None:
                        task.block(enq_block)
                        out_queue.waiting_producers.append(task)
                        yield BLOCKED
                        t = try_enq(delivery, loaded)
                last_del = delivery if delivery > t else t
                if t > delivery and t - latency > clock:
                    # Output backpressure: stall the front correspondingly.
                    clock = t - latency
