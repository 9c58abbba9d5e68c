"""Stage-thread interpreter: functional execution + scoreboard timing.

Each pipeline stage runs as a generator (a :class:`~repro.pipette.sched.Task`)
that walks its region-tree body, executing statements functionally while
accounting cycles with an out-of-order-lite model:

* every micro-op claims a slot in the core's shared 6-wide issue ledger
  (SMT contention among co-resident stages falls out of this);
* each register carries a *ready* cycle; completion = max(issue slot,
  operand ready) + latency, so dependence chains (the paper's serialized
  indirections) cost their full latency while independent work overlaps;
* loads additionally bound run-ahead through MSHR and ROB ledgers;
* branches run through a gshare predictor; mispredictions redirect the
  issue cursor at branch resolution time;
* queue operations block the *thread* (Pipette semantics: the SMT scheduler
  issues other threads meanwhile), with blocked time attributed to the
  queue-stall bucket of Fig. 10.
"""

from collections import deque

from ..errors import SimulationError
from ..ir import ops
from ..ir.values import is_control
from .branch import GsharePredictor
from .sched import BLOCKED

#: Control-flow signals returned by block execution.
NORMAL = None
_HALT = ("halt", 0)


class ArrayBinding:
    """Runtime binding of an array symbol: data plus its simulated address."""

    __slots__ = ("name", "data", "base", "elem_size", "is_float")

    def __init__(self, name, data, base, elem_size, is_float):
        self.name = name
        self.data = data
        self.base = base
        self.elem_size = elem_size
        self.is_float = is_float


class ThreadCtx:
    """Mutable per-thread machine state (registers + timing scoreboard)."""

    __slots__ = (
        "regs",
        "ready",
        "cursor",
        "rob",
        "rob_size",
        "rob_last",
        "mshr",
        "ledger",
        "mem",
        "core",
        "stats",
        "pred",
        "task",
        "config",
        "tracer",
    )

    def __init__(self, config, core, ledger, mem, stats, task, tracer=None):
        self.regs = {}
        self.ready = {}
        self.cursor = 0.0
        self.rob = deque()
        self.rob_size = config.rob_size
        self.rob_last = 0.0
        self.mshr = deque()
        self.ledger = ledger
        self.mem = mem
        self.core = core
        self.stats = stats
        self.pred = GsharePredictor()
        self.task = task
        self.config = config
        self.tracer = tracer

    # -- timing primitives -------------------------------------------------

    def issue(self, n=1):
        """Claim ``n`` issue slots starting at the cursor; returns last slot."""
        t = self.ledger.acquire(self.cursor)
        for _ in range(n - 1):
            t = self.ledger.acquire(t)
        self.cursor = t
        self.stats.uops += n
        return t

    def retire(self, completion):
        """Push a completion through the in-order ROB; may stall the cursor."""
        if completion < self.rob_last:
            completion = self.rob_last
        self.rob_last = completion
        rob = self.rob
        if len(rob) >= self.rob_size:
            oldest = rob.popleft()
            if oldest > self.cursor:
                self.stats.mem_stall += oldest - self.cursor
                if self.tracer is not None:
                    self.tracer.stall(self.stats.name, "mem", self.cursor, oldest)
                self.cursor = oldest
        rob.append(completion)

    def mshr_claim(self, completion):
        """Bound outstanding loads; the oldest must finish to free an entry."""
        mshr = self.mshr
        if len(mshr) >= self.config.mshrs:
            oldest = mshr.popleft()
            if oldest > self.cursor:
                self.stats.mem_stall += oldest - self.cursor
                if self.tracer is not None:
                    self.tracer.stall(self.stats.name, "mem", self.cursor, oldest)
                self.cursor = oldest
        mshr.append(completion)

    def ready_of(self, operand):
        if type(operand) is str:
            return self.ready.get(operand, 0.0)
        return 0.0


def _assign_pcs(stage):
    """Branch PCs by structural position (preorder walk of the stage).

    The gshare predictor indexes its tables by PC. Object addresses
    (``id``) would tie timing to allocator state, so two structurally
    identical pipelines could mispredict differently — and cached or
    pool-worker runs would not be bit-identical to serial ones.
    """
    table = {}
    counter = [0]
    _walk_pcs(stage.body, table, counter)
    for qid in sorted(stage.handlers):
        _walk_pcs(stage.handlers[qid], table, counter)
    return table


def _walk_pcs(body, table, counter):
    # A module-level function, not a closure: a recursive closure refers to
    # itself through its own cell, i.e. cyclic garbage per stage per run.
    for stmt in body:
        table[id(stmt)] = counter[0]
        counter[0] += 1
        kind = stmt.kind
        if kind == "if":
            _walk_pcs(stmt.then_body, table, counter)
            _walk_pcs(stmt.else_body or [], table, counter)
        elif kind in ("for", "loop"):
            _walk_pcs(stmt.body, table, counter)


class StageInterp:
    """Interprets one stage of a pipeline on one simulated thread."""

    ENGINE = "reference"

    def __init__(self, stage, ctx, runenv):
        self.stage = stage
        self.ctx = ctx
        self.env = runenv  # RunEnv: arrays, queues, shared cells, barrier...
        self.handlers = stage.handlers
        self.pcs = _assign_pcs(stage)

    # -- operand helpers -----------------------------------------------------

    def val(self, operand):
        if type(operand) is str and not operand.startswith("@"):
            return self.ctx.regs[operand]
        return operand  # constant or array handle

    def array_binding(self, operand):
        """Resolve an array operand (symbol or pointer register) to a binding."""
        name = operand
        if not name.startswith("@"):
            name = self.ctx.regs[name]  # pointer register holds a handle
            if not isinstance(name, str) or not name.startswith("@"):
                raise SimulationError(
                    "register %r used as pointer holds %r" % (operand, name)
                )
        binding = self.env.arrays.get(name[1:])
        if binding is None:
            raise SimulationError("unbound array %s" % name)
        return binding

    # -- main loop -----------------------------------------------------------

    def run(self):
        """Top-level generator executed by the scheduler."""
        ctx = self.ctx
        ctx.stats.start_cycle = ctx.cursor
        signal = yield from self.exec_body(self.stage.body)
        if signal is not NORMAL and signal is not _HALT:
            raise SimulationError(
                "stage %s finished with dangling control signal %r" % (self.stage.name, signal)
            )
        ctx.stats.end_cycle = ctx.cursor
        self.env.on_thread_done(self)

    def exec_body(self, body):
        """Execute a statement list; returns NORMAL or ('break', n)/('continue', 1)."""
        ctx = self.ctx
        regs = ctx.regs
        ready = ctx.ready
        for stmt in body:
            kind = stmt.kind

            if kind == "assign":
                args = stmt.args
                vals = [
                    regs[a] if type(a) is str and not a.startswith("@") else a for a in args
                ]
                slot = ctx.issue(1)
                dep = 0.0
                for a in args:
                    if type(a) is str:
                        r = ready.get(a, 0.0)
                        if r > dep:
                            dep = r
                start = slot if slot > dep else dep
                comp = start + ctx.config.op_latency(stmt.op)
                regs[stmt.dst] = ops.evaluate(stmt.op, vals)
                ready[stmt.dst] = comp
                ctx.retire(comp)

            elif kind == "load":
                binding = self.array_binding(stmt.array)
                idx = self.val(stmt.index)
                slot = ctx.issue(1)
                dep = ctx.ready_of(stmt.index)
                if type(stmt.array) is str and not stmt.array.startswith("@"):
                    r = ready.get(stmt.array, 0.0)
                    if r > dep:
                        dep = r
                start = slot if slot > dep else dep
                addr = binding.base + idx * binding.elem_size
                latency = ctx.mem.access(ctx.core, addr, start, stream_id=binding.name)
                comp = start + latency
                try:
                    value = binding.data[idx]
                except IndexError:
                    raise SimulationError(
                        "stage %s: load %s[%d] out of bounds (len %d)"
                        % (self.stage.name, stmt.array, idx, len(binding.data))
                    )
                regs[stmt.dst] = value
                ready[stmt.dst] = comp
                ctx.stats.loads += 1
                ctx.mshr_claim(comp)
                ctx.retire(comp)

            elif kind == "store":
                binding = self.array_binding(stmt.array)
                idx = self.val(stmt.index)
                value = self.val(stmt.value)
                slot = ctx.issue(1)
                dep = max(ctx.ready_of(stmt.index), ctx.ready_of(stmt.value))
                start = slot if slot > dep else dep
                addr = binding.base + idx * binding.elem_size
                ctx.mem.access(ctx.core, addr, start, stream_id=binding.name, is_store=True)
                try:
                    binding.data[idx] = value
                except IndexError:
                    raise SimulationError(
                        "stage %s: store %s[%d] out of bounds (len %d)"
                        % (self.stage.name, stmt.array, idx, len(binding.data))
                    )
                ctx.retire(start + 1)

            elif kind == "prefetch":
                binding = self.array_binding(stmt.array)
                idx = self.val(stmt.index)
                slot = ctx.issue(1)
                dep = ctx.ready_of(stmt.index)
                start = slot if slot > dep else dep
                if 0 <= idx < len(binding.data):
                    addr = binding.base + idx * binding.elem_size
                    latency = ctx.mem.access(ctx.core, addr, start, stream_id=binding.name)
                    comp = start + latency
                    ctx.stats.loads += 1
                    ctx.mshr_claim(comp)
                    ctx.retire(comp)

            elif kind == "if":
                cond = self.val(stmt.cond)
                taken = bool(cond)
                slot = ctx.issue(1)
                correct = ctx.pred.predict_and_update(self.pcs[id(stmt)], taken)
                if not correct:
                    resolve = max(slot, ctx.ready_of(stmt.cond))
                    target = resolve + ctx.config.mispredict_penalty
                    ctx.stats.mispredicts += 1
                    ctx.stats.branch_stall += target - ctx.cursor
                    if ctx.tracer is not None and target > ctx.cursor:
                        ctx.tracer.stall(ctx.stats.name, "branch", ctx.cursor, target)
                    ctx.cursor = target
                body2 = stmt.then_body if taken else stmt.else_body
                if body2:
                    signal = yield from self.exec_body(body2)
                    if signal is not NORMAL:
                        return signal

            elif kind == "for":
                signal = yield from self.exec_for(stmt)
                if signal is not NORMAL:
                    return signal

            elif kind == "loop":
                signal = yield from self.exec_loop(stmt)
                if signal is not NORMAL:
                    return signal

            elif kind == "break":
                return ("break", stmt.levels)

            elif kind == "continue":
                return ("continue", 1)

            elif kind == "deq":
                signal = yield from self.exec_deq(stmt)
                if signal is not NORMAL:
                    return signal

            elif kind == "enq":
                yield from self.do_enq(self.env.queue_of(self, stmt.queue), self.val(stmt.value), stmt.value)

            elif kind == "enq_ctrl":
                yield from self.do_enq(self.env.queue_of(self, stmt.queue), stmt.ctrl, None)

            elif kind == "peek":
                yield from self.exec_peek(stmt)

            elif kind == "is_control":
                value = self.val(stmt.src)
                slot = ctx.issue(1)
                comp = max(slot, ctx.ready_of(stmt.src)) + 1
                regs[stmt.dst] = 1 if is_control(value) else 0
                ready[stmt.dst] = comp
                ctx.retire(comp)

            elif kind == "call":
                intr = self.env.intrinsics.get(stmt.func)
                if intr is None:
                    raise SimulationError("unbound intrinsic %r" % stmt.func)
                vals = [self.val(a) for a in stmt.args]
                slot = ctx.issue(max(1, intr.cost))
                dep = 0.0
                for a in stmt.args:
                    r = ctx.ready_of(a)
                    if r > dep:
                        dep = r
                comp = max(slot, dep) + 1
                result = intr.fn(*vals)
                if stmt.dst is not None:
                    regs[stmt.dst] = result if result is not None else 0
                    ready[stmt.dst] = comp
                ctx.retire(comp)

            elif kind == "barrier":
                yield from self.exec_barrier(stmt)

            elif kind == "read_shared":
                slot = ctx.issue(1)
                regs[stmt.dst] = self.env.shared.read(stmt.var)
                ready[stmt.dst] = slot + 1
                ctx.retire(slot + 1)

            elif kind == "write_shared":
                value = self.val(stmt.value)
                slot = ctx.issue(1)
                self.env.shared.write(stmt.var, value)
                ctx.retire(max(slot, ctx.ready_of(stmt.value)) + 1)

            elif kind == "atomic_rmw":
                binding = self.array_binding(stmt.array)
                idx = self.val(stmt.index)
                value = self.val(stmt.value)
                slot = ctx.issue(3)
                dep = max(ctx.ready_of(stmt.index), ctx.ready_of(stmt.value))
                start = slot if slot > dep else dep
                addr = binding.base + idx * binding.elem_size
                latency = ctx.mem.access(ctx.core, addr, start, stream_id=binding.name)
                comp = start + latency + self.env.atomic_overhead
                old = binding.data[idx]
                binding.data[idx] = ops.evaluate(stmt.op, [old, value])
                if stmt.dst is not None:
                    regs[stmt.dst] = old
                    ready[stmt.dst] = comp
                ctx.stats.loads += 1
                ctx.mshr_claim(comp)
                ctx.retire(comp)

            elif kind == "enq_dist":
                replica = self.val(stmt.replica)
                queue, extra = self.env.remote_queue(self, stmt.queue, replica)
                yield from self.do_enq(queue, self.val(stmt.value), stmt.value, extra)

            elif kind == "enq_ctrl_dist":
                for queue, extra in self.env.all_replica_queues(self, stmt.queue):
                    yield from self.do_enq(queue, stmt.ctrl, None, extra)

            elif kind == "comment":
                pass

            else:
                raise SimulationError("unknown statement kind %r" % kind)
        return NORMAL

    # -- control flow ----------------------------------------------------------

    def exec_for(self, stmt):
        ctx = self.ctx
        lo = self.val(stmt.lo)
        hi = self.val(stmt.hi)
        step = self.val(stmt.step)
        pc = self.pcs[id(stmt)]
        bound_dep = max(ctx.ready_of(stmt.lo), ctx.ready_of(stmt.hi))
        i = lo
        while True:
            taken = i < hi
            # Loop control costs real instructions: increment, compare,
            # branch (paper Sec. III: "Computing loop bounds becomes
            # relatively expensive as the body... becomes smaller").
            slot = ctx.issue(3)
            correct = ctx.pred.predict_and_update(pc, taken)
            if not correct:
                resolve = max(slot, bound_dep)
                target = resolve + ctx.config.mispredict_penalty
                ctx.stats.mispredicts += 1
                ctx.stats.branch_stall += max(0.0, target - ctx.cursor)
                if target > ctx.cursor:
                    if ctx.tracer is not None:
                        ctx.tracer.stall(ctx.stats.name, "branch", ctx.cursor, target)
                    ctx.cursor = target
            if not taken:
                break
            ctx.regs[stmt.var] = i
            ctx.ready[stmt.var] = ctx.cursor
            signal = yield from self.exec_body(stmt.body)
            if signal is not NORMAL:
                kind, levels = signal
                if kind == "continue":
                    pass
                elif kind == "break":
                    if levels > 1:
                        return ("break", levels - 1)
                    break
                else:
                    return signal
            i += step
        return NORMAL

    def exec_loop(self, stmt):
        while True:
            signal = yield from self.exec_body(stmt.body)
            if signal is not NORMAL:
                kind, levels = signal
                if kind == "continue":
                    continue
                if kind == "break":
                    if levels > 1:
                        return ("break", levels - 1)
                    return NORMAL
                return signal

    # -- queues ------------------------------------------------------------------

    def do_enq(self, queue, value, value_operand, extra_latency=0.0):
        """Enqueue ``value``; blocks the thread only when the queue is full.

        Like a register write in the OOO core, an enqueue whose *value* is
        still being produced does not stall the thread: the entry's
        visibility timestamp simply carries the value's ready time. Only an
        architecturally full queue blocks the thread (Pipette semantics),
        which is what the Fig. 10 queue-stall bucket measures.
        """
        ctx = self.ctx
        slot = ctx.issue(1)
        dep = ctx.ready_of(value_operand) if value_operand is not None else 0.0
        start = slot if slot > dep else dep
        t = queue.try_enq(start, value, extra_latency)
        if t is None:
            wait_from = ctx.cursor
            while t is None:
                ctx.task.block(("enq", queue.qid))
                queue.waiting_producers.append(ctx.task)
                yield BLOCKED
                t = queue.try_enq(start if start > ctx.cursor else ctx.cursor, value, extra_latency)
            if t > ctx.cursor:
                ctx.stats.queue_stall += t - wait_from
                if ctx.tracer is not None:
                    ctx.tracer.stall(ctx.stats.name, "queue", wait_from, t)
                ctx.cursor = t
        elif t > start:
            # A slot existed only in the future (the capacity-ago entry is
            # dequeued later): the queue is effectively full now.
            ctx.stats.queue_stall += t - ctx.cursor
            if ctx.tracer is not None:
                ctx.tracer.stall(ctx.stats.name, "queue", ctx.cursor, t)
            ctx.cursor = t
        ctx.retire((t if t > start else start) + 1)

    def _deq_value(self, queue, reason):
        """Dequeue one entry; blocks the thread only when the queue is empty.

        Returns ``(value, ready_cycle)``. A present-but-in-flight entry does
        not stall the thread: its timestamp propagates through the register
        ready time, exactly like a load in flight.
        """
        ctx = self.ctx
        slot = ctx.issue(1)
        res = queue.try_deq(slot)
        if res is None:
            wait_from = ctx.cursor
            while res is None:
                ctx.task.block((reason, queue.qid))
                queue.waiting_consumers.append(ctx.task)
                yield BLOCKED
                res = queue.try_deq(ctx.cursor)
            value, t = res
            if t > ctx.cursor:
                ctx.stats.queue_stall += max(0.0, t - wait_from)
                if ctx.tracer is not None and t > wait_from:
                    ctx.tracer.stall(ctx.stats.name, "queue", wait_from, t)
                ctx.cursor = t
        else:
            value, t = res
        ctx.retire(t + 1)
        return value, t

    def exec_deq(self, stmt):
        ctx = self.ctx
        queue = self.env.queue_of(self, stmt.queue)
        handler = self.handlers.get(stmt.queue)
        while True:
            value, t = yield from self._deq_value(queue, "deq")
            if is_control(value) and handler is not None:
                # Hardware control-value handler: runs instead of delivering
                # the value; Pipette jumps to the handler on dequeue.
                ctx.regs["%ctrl"] = value
                ctx.ready["%ctrl"] = t
                signal = yield from self.exec_body(handler)
                if signal is not NORMAL:
                    return signal  # typically ('break', n) out of the loop
                continue  # handler fell through: retry the dequeue
            ctx.regs[stmt.dst] = value
            ctx.ready[stmt.dst] = t
            return NORMAL

    def exec_peek(self, stmt):
        ctx = self.ctx
        queue = self.env.queue_of(self, stmt.queue)
        slot = ctx.issue(1)
        res = queue.try_peek(slot)
        if res is None:
            wait_from = ctx.cursor
            while res is None:
                ctx.task.block(("peek", queue.qid))
                queue.waiting_consumers.append(ctx.task)
                yield BLOCKED
                res = queue.try_peek(ctx.cursor)
            value, t = res
            if t > ctx.cursor:
                ctx.stats.queue_stall += max(0.0, t - wait_from)
                if ctx.tracer is not None and t > wait_from:
                    ctx.tracer.stall(ctx.stats.name, "queue", wait_from, t)
                ctx.cursor = t
        else:
            value, t = res
        ctx.regs[stmt.dst] = value
        ctx.ready[stmt.dst] = t
        ctx.retire(t + 1)

    def exec_barrier(self, stmt):
        ctx = self.ctx
        barrier = self.env.barrier
        arrive_time = ctx.cursor
        release = barrier.arrive(ctx.task, arrive_time)
        if release is None:
            ctx.task.block(("barrier", stmt.tag))
            yield BLOCKED
            release = barrier.last_release
        if release > ctx.cursor:
            ctx.stats.barrier_stall += release - ctx.cursor
            if ctx.tracer is not None:
                ctx.tracer.stall(ctx.stats.name, "barrier", ctx.cursor, release)
            ctx.cursor = release
