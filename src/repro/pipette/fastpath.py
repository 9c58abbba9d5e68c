"""Fast-path execution engine: per-stage closure compilation.

The reference interpreter (:mod:`repro.pipette.interp`) walks each stage's
region tree statement-by-statement, re-dispatching on ``stmt.kind`` and
re-resolving operands on every execution. That dynamic dispatch is the hot
path under every figure, autotune candidate, and cache-miss compile.

This module removes it: at :class:`~repro.pipette.machine.Machine` setup
time, :class:`FastStageInterp` walks the region tree *once* and emits one
specialized Python closure per statement — operand accessors resolved
(constant vs register vs array binding), op handlers bound, branch PCs and
op latencies baked in. The hot statement kinds additionally inline the
timing primitives a statement execution would otherwise call out to:

* the in-order ROB ``retire`` and MSHR bookkeeping,
* the full L1 lookup of :meth:`MemorySystem.access` (MRU compare, LRU
  reorder, tag install), including the stride-prefetcher observation that
  runs on every load; only the below-L1 miss walk stays a call.

Closures compose under a three-mode protocol, tagged per step:

* ``PLAIN`` — a plain call; the statement can never block. Returns ``None``
  or a ``('break', n)`` / ``('continue', 1)`` control signal.
* ``MAYBE`` — a plain call for the overwhelmingly common non-blocking case;
  if the operation must block (queue full/empty), it returns a *generator
  continuation* instead, which the nearest enclosing generator drives with
  ``yield from``. Queue operations block on a tiny fraction of executions,
  so this removes a generator allocation per enqueue/dequeue.
* ``GEN`` — always a generator (barriers, distributed enqueues).

A body whose statements are all ``PLAIN`` is itself ``PLAIN``, so loop
iterations of straight-line code run without any generator machinery at
all; a body with ``MAYBE`` children is ``MAYBE`` (it propagates the
continuation outward); only ``GEN`` children force a generator body.

The fast path is **bit-identical** to the reference interpreter: every
closure replays the interpreter's timing arithmetic in the same order on
the same shared structures (issue ledgers, ROB/MSHR deques, queues, the
gshare predictor, cache tag state, DRAM windows), so every
:class:`SimStats` field — and any attached trace — matches exactly. The
interpreter stays available as the conformance oracle behind
``engine="reference"`` / ``REPRO_ENGINE=reference``; the engine matrix in
``tests/pipette/test_fastpath_conformance.py`` holds every engine to byte
equality with it.

Nothing else depends on the fast path any more:
``Machine._ENGINE_CLASSES["fastpath"]`` is the only reference to
:class:`FastStageInterp`.
"""

from ..errors import SimulationError
from ..ir.ops import TERNARY_OPS, _PYTHON_BINARY, _PYTHON_UNARY
from ..ir.values import Ctrl, is_control
from .batchpath import _is_reg
from .interp import _HALT, _assign_pcs
from .sched import BLOCKED

# Imported from here by the frozen `benchmarks/e2e/wl_sim.py`; the selector
# lives in :mod:`repro.pipette.config`.
from .config import resolve_engine  # noqa: F401

#: Step modes (see module docstring).
PLAIN, MAYBE, GEN = 0, 1, 2

#: Bodies up to this many statements get a generated unrolled dispatcher;
#: longer bodies fall back to the generic driver loops in ``_compile_body``.
_UNROLL_MAX = 16

# Unrolled body dispatchers, generated once per (length, mode-shape) and
# cached module-wide. A multi-statement body otherwise pays a Python-level
# loop (tuple unpack, index bookkeeping, per-step mode test) for every
# execution; the generated form is the same chain of "call step, check
# signal" blocks a hand-written specialization would contain, with each
# step's mode resolved at generation time instead of per run. The step
# functions are closure cells of the generated maker (LOAD_DEREF), not
# globals of the exec namespace.
_plain_makers = {}
_maybe_makers = {}
_gen_makers = {}


def _plain_maker(n):
    """Maker for an n-statement all-PLAIN body: (f0..fn-1) -> run()."""
    maker = _plain_makers.get(n)
    if maker is None:
        args = ", ".join("f%d" % i for i in range(n))
        lines = ["def _make(%s):" % args, "    def run_plain_u():"]
        for i in range(n - 1):
            lines.append("        signal = f%d()" % i)
            lines.append("        if signal is not None:")
            lines.append("            return signal")
        lines.append("        return f%d()" % (n - 1))
        lines.append("    return run_plain_u")
        namespace = {}
        exec("\n".join(lines), namespace)
        maker = _plain_makers[n] = namespace["_make"]
    return maker


def _maybe_maker(modes):
    """Maker for a top-mode-MAYBE body: (resume, f0..fn-1) -> run().

    ``modes`` is the per-statement mode tuple; MAYBE steps get the
    continuation check (non-tuple signal -> hand ``resume(cont, i)`` to the
    enclosing generator), PLAIN steps just propagate their signal.
    """
    maker = _maybe_makers.get(modes)
    if maker is None:
        args = ", ".join("f%d" % i for i in range(len(modes)))
        lines = ["def _make(resume, %s):" % args, "    def run_maybe_u():"]
        for i, mode in enumerate(modes):
            lines.append("        signal = f%d()" % i)
            lines.append("        if signal is not None:")
            if mode == MAYBE:
                lines.append("            if type(signal) is not tuple:")
                lines.append("                return resume(signal, %d)" % i)
            lines.append("            return signal")
        lines.append("        return None")
        lines.append("    return run_maybe_u")
        namespace = {}
        exec("\n".join(lines), namespace)
        maker = _maybe_makers[modes] = namespace["_make"]
    return maker


def _gen_maker(modes):
    """Maker for a top-mode-GEN body: (f0..fn-1) -> generator function."""
    maker = _gen_makers.get(modes)
    if maker is None:
        args = ", ".join("f%d" % i for i in range(len(modes)))
        lines = ["def _make(%s):" % args, "    def run_gen_u():"]
        for i, mode in enumerate(modes):
            if mode == GEN:
                lines.append("        signal = yield from f%d()" % i)
                lines.append("        if signal is not None:")
                lines.append("            return signal")
            elif mode == MAYBE:
                lines.append("        signal = f%d()" % i)
                lines.append("        if signal is not None:")
                lines.append("            if type(signal) is not tuple:")
                lines.append("                signal = yield from signal")
                lines.append("                if signal is not None:")
                lines.append("                    return signal")
                lines.append("            else:")
                lines.append("                return signal")
            else:
                lines.append("        signal = f%d()" % i)
                lines.append("        if signal is not None:")
                lines.append("            return signal")
        lines.append("        return None")
        lines.append("    return run_gen_u")
        namespace = {}
        exec("\n".join(lines), namespace)
        maker = _gen_makers[modes] = namespace["_make"]
    return maker


class FastStageInterp:
    """Drop-in replacement for :class:`~repro.pipette.interp.StageInterp`.

    Construction compiles the stage; :meth:`run` returns the generator the
    scheduler drives. The public surface (``stage``/``ctx``/``env``
    attributes, ``run()``) matches ``StageInterp`` so the machine, the
    run-env callbacks (``queue_of``, ``remote_queue``), and the deadlock
    reporter are oblivious to which engine a thread runs on.
    """

    ENGINE = "fastpath"

    def __init__(self, stage, ctx, runenv):
        self.stage = stage
        self.ctx = ctx
        self.env = runenv
        self.handlers = stage.handlers
        self.pcs = _assign_pcs(stage)
        # Hot references, resolved once per thread instead of per statement.
        # Cold statement kinds call these bound methods; hot kinds inline
        # the same logic (see the per-kind compilers below).
        self._acquire = ctx.ledger.acquire
        self._retire = ctx.retire
        self._mshr_claim = ctx.mshr_claim
        self._mem_access = ctx.mem.access
        self._predict = ctx.pred.predict_and_update
        self._tracer = ctx.tracer
        self._tname = ctx.stats.name
        self._penalty = ctx.config.mispredict_penalty
        # Control-value handlers compile first into a dict the deq closures
        # read at run time (a handler may dequeue a queue whose handler is
        # compiled later — or its own — so compile-time wiring would knot).
        self._chandlers = {}
        for qid in sorted(stage.handlers):
            self._chandlers[qid] = self._compile_body(stage.handlers[qid])
        self._body = self._compile_body(stage.body)

    # -- operand accessors --------------------------------------------------

    def _val_getter(self, operand):
        """() -> runtime value, mirroring ``StageInterp.val``."""
        if _is_reg(operand):
            regs = self.ctx.regs
            return lambda: regs[operand]
        return lambda: operand  # constant or "@array" handle

    def _reader(self, operand):
        """``(reg_name, constant)`` split of an operand, for inline reads.

        Exactly one side is live: hot closures do ``regs[name] if name is
        not None else constant`` instead of paying a getter-lambda call.
        The register name doubles as the operand's ready-time key;
        ``@array`` handles and constants never appear as ``ready`` keys, so
        their ``ready.get(..., 0.0)`` in the interpreter is always 0.0 and
        they drop out of dependence computation outright.
        """
        if _is_reg(operand):
            return operand, None
        return None, operand

    def _ready_name(self, operand):
        """Register name whose ready time gates ``operand``, or None."""
        return operand if _is_reg(operand) else None

    def _static_binding(self, operand):
        """The ArrayBinding for a literal ``@name`` operand, else None."""
        if type(operand) is str and operand.startswith("@"):
            binding = self.env.arrays.get(operand[1:])
            if binding is None:
                raise SimulationError("unbound array %s" % operand)
            return binding
        return None

    def _binding_getter(self, operand):
        """() -> ArrayBinding, mirroring ``StageInterp.array_binding``."""
        binding = self._static_binding(operand)
        if binding is not None:
            return lambda: binding
        regs = self.ctx.regs
        arrays = self.env.arrays

        def resolve():
            name = regs[operand]  # pointer register holds a handle
            if not isinstance(name, str) or not name.startswith("@"):
                raise SimulationError(
                    "register %r used as pointer holds %r" % (operand, name)
                )
            found = arrays.get(name[1:])
            if found is None:
                raise SimulationError("unbound array %s" % name)
            return found

        return resolve

    # -- body composition ---------------------------------------------------

    def _compile_body(self, body):
        """Compile a statement list into ``(mode, fn)``.

        ``fn`` follows the mode protocol from the module docstring; it
        reports ``None`` (normal completion) or a ``('break', n)`` /
        ``('continue', 1)`` signal, exactly like the interpreter's
        ``exec_body`` — via the return value for PLAIN/GEN, and for MAYBE
        either directly or as the result of the returned continuation.
        """
        steps = []
        for stmt in body:
            compiled = self._compile_stmt(stmt)
            if compiled is not None:  # comments vanish at compile time
                steps.append(compiled)
        if not steps:
            return (PLAIN, None)
        if len(steps) == 1:
            return steps[0]
        top = max(mode for mode, _ in steps)
        if top == PLAIN:
            fns = tuple(fn for _, fn in steps)
            if len(fns) <= _UNROLL_MAX:
                return (PLAIN, _plain_maker(len(fns))(*fns))

            def run_plain():
                for fn in fns:
                    signal = fn()
                    if signal is not None:
                        return signal
                return None

            return (PLAIN, run_plain)
        seq = tuple(steps)
        if top == MAYBE:

            def resume(cont, at):
                """Finish the blocked step ``at``, then run the tail."""
                signal = yield from cont
                if signal is not None:
                    return signal
                for mode, fn in seq[at + 1:]:
                    signal = fn()
                    if signal is not None:
                        if mode == MAYBE and type(signal) is not tuple:
                            signal = yield from signal
                            if signal is not None:
                                return signal
                        else:
                            return signal
                return None

            if len(seq) <= _UNROLL_MAX:
                modes = tuple(mode for mode, _ in seq)
                fns = tuple(fn for _, fn in seq)
                return (MAYBE, _maybe_maker(modes)(resume, *fns))

            def run_maybe():
                at = 0
                for mode, fn in seq:
                    signal = fn()
                    if signal is not None:
                        if mode == MAYBE and type(signal) is not tuple:
                            return resume(signal, at)
                        return signal
                    at += 1
                return None

            return (MAYBE, run_maybe)

        if len(seq) <= _UNROLL_MAX:
            modes = tuple(mode for mode, _ in seq)
            fns = tuple(fn for _, fn in seq)
            return (GEN, _gen_maker(modes)(*fns))

        def run_gen():
            for mode, fn in seq:
                if mode == GEN:
                    signal = yield from fn()
                else:
                    signal = fn()
                    if signal is not None and mode == MAYBE and type(signal) is not tuple:
                        signal = yield from signal
                if signal is not None:
                    return signal
            return None

        return (GEN, run_gen)

    def _compile_stmt(self, stmt):
        kind = stmt.kind
        method = getattr(self, "_compile_" + kind, None)
        if method is None:
            raise SimulationError("unknown statement kind %r" % kind)
        return method(stmt)

    # -- straight-line statements (hot: inlined timing primitives) ----------
    #
    # Each hot closure takes its issue slots from IssueLedger.acquire
    # (sched.py), as the reference does, and repeats two inline blocks, kept
    # textually identical so they can be audited against their sources:
    #   retire  —  ThreadCtx.retire (interp.py)
    #   mshr    —  ThreadCtx.mshr_claim (interp.py)

    def _compile_assign(self, stmt):
        ctx = self.ctx
        regs, ready = ctx.regs, ctx.ready
        tstats = ctx.stats
        acquire = self._acquire
        rob, rob_size = ctx.rob, ctx.rob_size
        tracer, tname = self._tracer, self._tname
        dst = stmt.dst
        latency = ctx.config.op_latency(stmt.op)
        args = stmt.args
        rnames = tuple(a for a in args if _is_reg(a))
        ready_get = ready.get
        op = stmt.op

        def finish(value, dep):
            """Shared issue/retire tail once operands are evaluated."""
            t = acquire(ctx.cursor)
            ctx.cursor = t
            tstats.uops += 1
            start = t if t > dep else dep
            comp = start + latency
            regs[dst] = value
            ready[dst] = comp
            # retire
            r = comp
            last = ctx.rob_last
            if r < last:
                r = last
            ctx.rob_last = r
            if len(rob) >= rob_size:
                oldest = rob.popleft()
                cur = ctx.cursor
                if oldest > cur:
                    tstats.mem_stall += oldest - cur
                    if tracer is not None:
                        tracer.stall(tname, "mem", cur, oldest)
                    ctx.cursor = oldest
            rob.append(r)

        if op in _PYTHON_BINARY:
            opfn = _PYTHON_BINARY[op]
            r0, c0 = self._reader(args[0])
            r1, c1 = self._reader(args[1])
            if r0 is not None and r1 is not None:
                # The register/register binary op is the single most
                # frequent statement shape; the ``finish`` tail is inlined
                # here (and in the one-register shapes below) to drop the
                # per-execution call.

                def step():
                    dep = ready_get(r0, 0.0)
                    rt = ready_get(r1, 0.0)
                    value = opfn(regs[r0], regs[r1])
                    if rt > dep:
                        dep = rt
                    t = acquire(ctx.cursor)
                    ctx.cursor = t
                    tstats.uops += 1
                    comp = (t if t > dep else dep) + latency
                    regs[dst] = value
                    ready[dst] = comp
                    # retire
                    r = comp
                    last = ctx.rob_last
                    if r < last:
                        r = last
                    ctx.rob_last = r
                    if len(rob) >= rob_size:
                        oldest = rob.popleft()
                        cur = ctx.cursor
                        if oldest > cur:
                            tstats.mem_stall += oldest - cur
                            if tracer is not None:
                                tracer.stall(tname, "mem", cur, oldest)
                            ctx.cursor = oldest
                    rob.append(r)

                return (PLAIN, step)
            if r0 is not None or r1 is not None:
                rname = r0 if r0 is not None else r1
                reg_left = r0 is not None

                def step():
                    dep = ready_get(rname, 0.0)
                    value = opfn(regs[rname], c1) if reg_left else opfn(c0, regs[rname])
                    t = acquire(ctx.cursor)
                    ctx.cursor = t
                    tstats.uops += 1
                    comp = (t if t > dep else dep) + latency
                    regs[dst] = value
                    ready[dst] = comp
                    # retire
                    r = comp
                    last = ctx.rob_last
                    if r < last:
                        r = last
                    ctx.rob_last = r
                    if len(rob) >= rob_size:
                        oldest = rob.popleft()
                        cur = ctx.cursor
                        if oldest > cur:
                            tstats.mem_stall += oldest - cur
                            if tracer is not None:
                                tracer.stall(tname, "mem", cur, oldest)
                            ctx.cursor = oldest
                    rob.append(r)

                return (PLAIN, step)

            def step():
                finish(opfn(c0, c1), 0.0)

            return (PLAIN, step)
        if op not in TERNARY_OPS:
            opfn = _PYTHON_UNARY[op]
            r0, c0 = self._reader(args[0])
            if r0 is not None:

                def step():
                    dep = ready_get(r0, 0.0)
                    value = opfn(regs[r0])
                    t = acquire(ctx.cursor)
                    ctx.cursor = t
                    tstats.uops += 1
                    comp = (t if t > dep else dep) + latency
                    regs[dst] = value
                    ready[dst] = comp
                    # retire
                    r = comp
                    last = ctx.rob_last
                    if r < last:
                        r = last
                    ctx.rob_last = r
                    if len(rob) >= rob_size:
                        oldest = rob.popleft()
                        cur = ctx.cursor
                        if oldest > cur:
                            tstats.mem_stall += oldest - cur
                            if tracer is not None:
                                tracer.stall(tname, "mem", cur, oldest)
                            ctx.cursor = oldest
                    rob.append(r)

                return (PLAIN, step)

            def step():
                finish(opfn(c0), 0.0)

            return (PLAIN, step)

        # select (the only ternary) keeps generic getters; it is rare.
        g0, g1, g2 = [self._val_getter(a) for a in args]

        def compute():
            v0, v1, v2 = g0(), g1(), g2()
            return v1 if v0 else v2

        if len(rnames) == 0:

            def operand_dep():
                return 0.0

        elif len(rnames) == 1:
            (rn0,) = rnames

            def operand_dep():
                return ready_get(rn0, 0.0)

        elif len(rnames) == 2:
            rn0, rn1 = rnames

            def operand_dep():
                dep = ready_get(rn0, 0.0)
                r = ready_get(rn1, 0.0)
                return r if r > dep else dep

        else:

            def operand_dep():
                dep = 0.0
                for name in rnames:
                    r = ready_get(name, 0.0)
                    if r > dep:
                        dep = r
                return dep

        def step():
            value = compute()
            t = acquire(ctx.cursor)
            ctx.cursor = t
            tstats.uops += 1
            dep = operand_dep()
            start = t if t > dep else dep
            comp = start + latency
            regs[dst] = value
            ready[dst] = comp
            # retire
            r = comp
            last = ctx.rob_last
            if r < last:
                r = last
            ctx.rob_last = r
            if len(rob) >= rob_size:
                oldest = rob.popleft()
                cur = ctx.cursor
                if oldest > cur:
                    tstats.mem_stall += oldest - cur
                    if tracer is not None:
                        tracer.stall(tname, "mem", cur, oldest)
                    ctx.cursor = oldest
            rob.append(r)

        return (PLAIN, step)

    def _compile_load(self, stmt):
        static = self._static_binding(stmt.array)
        if static is None:
            return self._compile_load_dynamic(stmt)
        ctx = self.ctx
        regs, ready = ctx.regs, ctx.ready
        tstats = ctx.stats
        acquire = self._acquire
        rob, rob_size = ctx.rob, ctx.rob_size
        mshr, mshrs = ctx.mshr, ctx.config.mshrs
        tracer, tname = self._tracer, self._tname
        core = ctx.core
        dst = stmt.dst
        stage_name = self.stage.name
        array_op = stmt.array
        iname, iconst = self._reader(stmt.index)
        ready_get = ready.get
        data = static.data
        base = static.base
        esize = static.elem_size
        sname = static.name
        # Inline L1 lookup (MemorySystem.access): the MRU compare catches
        # streaming accesses; deeper hits reorder LRU; misses install the
        # tag and take the below-L1 walk. Same tag state, same counters.
        mem = ctx.mem
        shift = mem.LINE_SHIFT
        l1 = mem.l1[core]
        l1_sets = l1.sets
        scount = l1.sets_count
        l1_ways = l1.ways
        l1_stats = l1.stats
        cfg = ctx.config
        l1_lat = cfg.l1.latency
        pf_on = cfg.prefetch_enabled
        pf_deg = cfg.prefetch_degree
        below_l1 = mem.miss_below_l1
        pf_streams = mem.prefetchers[core].streams
        max_stride = mem.prefetchers[core].MAX_STRIDE
        prefetch_one = mem._prefetch

        def step():
            idx = regs[iname] if iname is not None else iconst
            t = acquire(ctx.cursor)
            ctx.cursor = t
            tstats.uops += 1
            dep = ready_get(iname, 0.0) if iname is not None else 0.0
            start = t if t > dep else dep
            addr = base + idx * esize
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
                if entry is None:
                    l1_sets[sindex] = [tag]
                else:
                    entry.insert(0, tag)
                    if len(entry) > l1_ways:
                        entry.pop()
                l1_stats.misses += 1
                latency = below_l1(core, line, start)
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
            comp = start + latency
            try:
                value = data[idx]
            except IndexError:
                raise SimulationError(
                    "stage %s: load %s[%d] out of bounds (len %d)"
                    % (stage_name, array_op, idx, len(data))
                )
            regs[dst] = value
            ready[dst] = comp
            tstats.loads += 1
            # mshr
            if len(mshr) >= mshrs:
                oldest = mshr.popleft()
                cur = ctx.cursor
                if oldest > cur:
                    tstats.mem_stall += oldest - cur
                    if tracer is not None:
                        tracer.stall(tname, "mem", cur, oldest)
                    ctx.cursor = oldest
            mshr.append(comp)
            # retire
            r = comp
            last = ctx.rob_last
            if r < last:
                r = last
            ctx.rob_last = r
            if len(rob) >= rob_size:
                oldest = rob.popleft()
                cur = ctx.cursor
                if oldest > cur:
                    tstats.mem_stall += oldest - cur
                    if tracer is not None:
                        tracer.stall(tname, "mem", cur, oldest)
                    ctx.cursor = oldest
            rob.append(r)

        return (PLAIN, step)

    def _compile_load_dynamic(self, stmt):
        """Load through a pointer register (binding resolved per execution)."""
        ctx = self.ctx
        regs, ready = ctx.regs, ctx.ready
        tstats = ctx.stats
        acquire = self._acquire
        rob, rob_size = ctx.rob, ctx.rob_size
        mshr, mshrs = ctx.mshr, ctx.config.mshrs
        tracer, tname = self._tracer, self._tname
        core = ctx.core
        dst = stmt.dst
        stage_name = self.stage.name
        array_op = stmt.array
        get_binding = self._binding_getter(stmt.array)
        get_idx = self._val_getter(stmt.index)
        iname = self._ready_name(stmt.index)
        aname = self._ready_name(stmt.array)  # the pointer register
        ready_get = ready.get
        # Inline L1 lookup: same block as the static-binding load, only the
        # array binding (hence address and stream id) resolves per step.
        mem = ctx.mem
        shift = mem.LINE_SHIFT
        l1 = mem.l1[core]
        l1_sets = l1.sets
        scount = l1.sets_count
        l1_ways = l1.ways
        l1_stats = l1.stats
        cfg = ctx.config
        l1_lat = cfg.l1.latency
        pf_on = cfg.prefetch_enabled
        pf_deg = cfg.prefetch_degree
        below_l1 = mem.miss_below_l1
        pf_streams = mem.prefetchers[core].streams
        max_stride = mem.prefetchers[core].MAX_STRIDE
        prefetch_one = mem._prefetch

        def step():
            binding = get_binding()
            idx = get_idx()
            t = acquire(ctx.cursor)
            ctx.cursor = t
            tstats.uops += 1
            dep = ready_get(iname, 0.0) if iname is not None else 0.0
            if aname is not None:
                r = ready_get(aname, 0.0)
                if r > dep:
                    dep = r
            start = t if t > dep else dep
            addr = binding.base + idx * binding.elem_size
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
                if entry is None:
                    l1_sets[sindex] = [tag]
                else:
                    entry.insert(0, tag)
                    if len(entry) > l1_ways:
                        entry.pop()
                l1_stats.misses += 1
                latency = below_l1(core, line, start)
            if pf_on:
                # stride observe (_StreamTable.observe, mem.py), inlined
                sentry = pf_streams.get(binding.name)
                if sentry is None:
                    pf_streams[binding.name] = (line, 0, 0)
                else:
                    last_line, pstride, prun = sentry
                    delta = line - last_line
                    if delta != 0:
                        if delta == pstride and 0 < abs(pstride) <= max_stride:
                            prun = prun + 1 if prun < 8 else 8
                            pf_streams[binding.name] = (line, pstride, prun)
                            if prun >= 2:
                                later = start + latency
                                for k in range(1, pf_deg + 1):
                                    prefetch_one(core, line + pstride * k, later)
                        else:
                            pf_streams[binding.name] = (line, delta, 1)
            comp = start + latency
            try:
                value = binding.data[idx]
            except IndexError:
                raise SimulationError(
                    "stage %s: load %s[%d] out of bounds (len %d)"
                    % (stage_name, array_op, idx, len(binding.data))
                )
            regs[dst] = value
            ready[dst] = comp
            tstats.loads += 1
            # mshr
            if len(mshr) >= mshrs:
                oldest = mshr.popleft()
                cur = ctx.cursor
                if oldest > cur:
                    tstats.mem_stall += oldest - cur
                    if tracer is not None:
                        tracer.stall(tname, "mem", cur, oldest)
                    ctx.cursor = oldest
            mshr.append(comp)
            # retire
            r = comp
            last = ctx.rob_last
            if r < last:
                r = last
            ctx.rob_last = r
            if len(rob) >= rob_size:
                oldest = rob.popleft()
                cur = ctx.cursor
                if oldest > cur:
                    tstats.mem_stall += oldest - cur
                    if tracer is not None:
                        tracer.stall(tname, "mem", cur, oldest)
                    ctx.cursor = oldest
            rob.append(r)

        return (PLAIN, step)

    def _compile_store(self, stmt):
        static = self._static_binding(stmt.array)
        if static is None:
            return self._compile_store_dynamic(stmt)
        ctx = self.ctx
        regs, ready = ctx.regs, ctx.ready
        tstats = ctx.stats
        acquire = self._acquire
        rob, rob_size = ctx.rob, ctx.rob_size
        tracer, tname = self._tracer, self._tname
        core = ctx.core
        stage_name = self.stage.name
        array_op = stmt.array
        iname, iconst = self._reader(stmt.index)
        vname, vconst = self._reader(stmt.value)
        ready_get = ready.get
        data = static.data
        base = static.base
        esize = static.elem_size
        mem = ctx.mem
        shift = mem.LINE_SHIFT
        l1 = mem.l1[core]
        l1_sets = l1.sets
        scount = l1.sets_count
        l1_ways = l1.ways
        l1_stats = l1.stats
        below_l1 = mem.miss_below_l1

        def step():
            idx = regs[iname] if iname is not None else iconst
            value = regs[vname] if vname is not None else vconst
            t = acquire(ctx.cursor)
            ctx.cursor = t
            tstats.uops += 1
            dep = ready_get(iname, 0.0) if iname is not None else 0.0
            if vname is not None:
                r = ready_get(vname, 0.0)
                if r > dep:
                    dep = r
            start = t if t > dep else dep
            addr = base + idx * esize
            # Inline L1 lookup; stores never trigger the prefetcher and
            # their latency is hidden by the store buffer (result unused).
            line = addr >> shift
            sindex = line % scount
            tag = line // scount
            entry = l1_sets.get(sindex)
            if entry is not None and entry[0] == tag:
                l1_stats.hits += 1
            elif entry is not None and tag in entry:
                pos = entry.index(tag, 1)
                del entry[pos]
                entry.insert(0, tag)
                l1_stats.hits += 1
            else:
                if entry is None:
                    l1_sets[sindex] = [tag]
                else:
                    entry.insert(0, tag)
                    if len(entry) > l1_ways:
                        entry.pop()
                l1_stats.misses += 1
                below_l1(core, line, start)
            try:
                data[idx] = value
            except IndexError:
                raise SimulationError(
                    "stage %s: store %s[%d] out of bounds (len %d)"
                    % (stage_name, array_op, idx, len(data))
                )
            comp = start + 1
            # retire
            r = comp
            last = ctx.rob_last
            if r < last:
                r = last
            ctx.rob_last = r
            if len(rob) >= rob_size:
                oldest = rob.popleft()
                cur = ctx.cursor
                if oldest > cur:
                    tstats.mem_stall += oldest - cur
                    if tracer is not None:
                        tracer.stall(tname, "mem", cur, oldest)
                    ctx.cursor = oldest
            rob.append(r)

        return (PLAIN, step)

    def _compile_store_dynamic(self, stmt):
        ctx = self.ctx
        ready = ctx.ready
        tstats = ctx.stats
        acquire, retire = self._acquire, self._retire
        mem_access = self._mem_access
        core = ctx.core
        stage_name = self.stage.name
        array_op = stmt.array
        get_binding = self._binding_getter(stmt.array)
        get_idx = self._val_getter(stmt.index)
        get_val = self._val_getter(stmt.value)
        iname = self._ready_name(stmt.index)
        vname = self._ready_name(stmt.value)
        ready_get = ready.get

        def step():
            binding = get_binding()
            idx = get_idx()
            value = get_val()
            t = acquire(ctx.cursor)
            ctx.cursor = t
            tstats.uops += 1
            dep = ready_get(iname, 0.0) if iname is not None else 0.0
            if vname is not None:
                r = ready_get(vname, 0.0)
                if r > dep:
                    dep = r
            start = t if t > dep else dep
            addr = binding.base + idx * binding.elem_size
            mem_access(core, addr, start, stream_id=binding.name, is_store=True)
            try:
                binding.data[idx] = value
            except IndexError:
                raise SimulationError(
                    "stage %s: store %s[%d] out of bounds (len %d)"
                    % (stage_name, array_op, idx, len(binding.data))
                )
            retire(start + 1)

        return (PLAIN, step)

    def _compile_prefetch(self, stmt):
        static = self._static_binding(stmt.array)
        if static is None:
            return self._compile_prefetch_dynamic(stmt)
        ctx = self.ctx
        regs, ready = ctx.regs, ctx.ready
        tstats = ctx.stats
        acquire = self._acquire
        rob, rob_size = ctx.rob, ctx.rob_size
        mshr, mshrs = ctx.mshr, ctx.config.mshrs
        tracer, tname = self._tracer, self._tname
        core = ctx.core
        iname, iconst = self._reader(stmt.index)
        ready_get = ready.get
        data = static.data
        base = static.base
        esize = static.elem_size
        sname = static.name
        mem = ctx.mem
        shift = mem.LINE_SHIFT
        l1 = mem.l1[core]
        l1_sets = l1.sets
        scount = l1.sets_count
        l1_ways = l1.ways
        l1_stats = l1.stats
        cfg = ctx.config
        l1_lat = cfg.l1.latency
        pf_on = cfg.prefetch_enabled
        pf_deg = cfg.prefetch_degree
        below_l1 = mem.miss_below_l1
        pf_streams = mem.prefetchers[core].streams
        max_stride = mem.prefetchers[core].MAX_STRIDE
        prefetch_one = mem._prefetch

        def step():
            idx = regs[iname] if iname is not None else iconst
            t = acquire(ctx.cursor)
            ctx.cursor = t
            tstats.uops += 1
            dep = ready_get(iname, 0.0) if iname is not None else 0.0
            start = t if t > dep else dep
            if 0 <= idx < len(data):
                addr = base + idx * esize
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
                    if entry is None:
                        l1_sets[sindex] = [tag]
                    else:
                        entry.insert(0, tag)
                        if len(entry) > l1_ways:
                            entry.pop()
                    l1_stats.misses += 1
                    latency = below_l1(core, line, start)
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
                comp = start + latency
                tstats.loads += 1
                # mshr
                if len(mshr) >= mshrs:
                    oldest = mshr.popleft()
                    cur = ctx.cursor
                    if oldest > cur:
                        tstats.mem_stall += oldest - cur
                        if tracer is not None:
                            tracer.stall(tname, "mem", cur, oldest)
                        ctx.cursor = oldest
                mshr.append(comp)
                # retire
                r = comp
                last = ctx.rob_last
                if r < last:
                    r = last
                ctx.rob_last = r
                if len(rob) >= rob_size:
                    oldest = rob.popleft()
                    cur = ctx.cursor
                    if oldest > cur:
                        tstats.mem_stall += oldest - cur
                        if tracer is not None:
                            tracer.stall(tname, "mem", cur, oldest)
                        ctx.cursor = oldest
                rob.append(r)

        return (PLAIN, step)

    def _compile_prefetch_dynamic(self, stmt):
        ctx = self.ctx
        ready = ctx.ready
        tstats = ctx.stats
        acquire, retire = self._acquire, self._retire
        mshr_claim, mem_access = self._mshr_claim, self._mem_access
        core = ctx.core
        get_binding = self._binding_getter(stmt.array)
        get_idx = self._val_getter(stmt.index)
        iname = self._ready_name(stmt.index)
        ready_get = ready.get

        def step():
            binding = get_binding()
            idx = get_idx()
            t = acquire(ctx.cursor)
            ctx.cursor = t
            tstats.uops += 1
            dep = ready_get(iname, 0.0) if iname is not None else 0.0
            start = t if t > dep else dep
            if 0 <= idx < len(binding.data):
                addr = binding.base + idx * binding.elem_size
                latency = mem_access(core, addr, start, stream_id=binding.name)
                comp = start + latency
                tstats.loads += 1
                mshr_claim(comp)
                retire(comp)

        return (PLAIN, step)

    def _compile_is_control(self, stmt):
        ctx = self.ctx
        regs, ready = ctx.regs, ctx.ready
        tstats = ctx.stats
        acquire = self._acquire
        rob, rob_size = ctx.rob, ctx.rob_size
        tracer, tname = self._tracer, self._tname
        dst = stmt.dst
        sname, sconst = self._reader(stmt.src)
        ready_get = ready.get

        def step():
            value = regs[sname] if sname is not None else sconst
            t = acquire(ctx.cursor)
            ctx.cursor = t
            tstats.uops += 1
            dep = ready_get(sname, 0.0) if sname is not None else 0.0
            comp = (t if t > dep else dep) + 1
            regs[dst] = 1 if type(value) is Ctrl else 0
            ready[dst] = comp
            # retire
            r = comp
            last = ctx.rob_last
            if r < last:
                r = last
            ctx.rob_last = r
            if len(rob) >= rob_size:
                oldest = rob.popleft()
                cur = ctx.cursor
                if oldest > cur:
                    tstats.mem_stall += oldest - cur
                    if tracer is not None:
                        tracer.stall(tname, "mem", cur, oldest)
                    ctx.cursor = oldest
            rob.append(r)

        return (PLAIN, step)

    def _compile_call(self, stmt):
        ctx = self.ctx
        regs, ready = ctx.regs, ctx.ready
        tstats = ctx.stats
        acquire, retire = self._acquire, self._retire
        dst = stmt.dst
        func = stmt.func
        getters = [self._val_getter(a) for a in stmt.args]
        rnames = tuple(a for a in stmt.args if _is_reg(a))
        ready_get = ready.get
        intr = self.env.intrinsics.get(func)
        if intr is None:

            def step():
                raise SimulationError("unbound intrinsic %r" % func)

            return (PLAIN, step)
        cost = max(1, intr.cost)
        fn = intr.fn

        def step():
            vals = [g() for g in getters]
            t = acquire(ctx.cursor)
            for _ in range(cost - 1):
                t = acquire(t)
            ctx.cursor = t
            tstats.uops += cost
            dep = 0.0
            for name in rnames:
                r = ready_get(name, 0.0)
                if r > dep:
                    dep = r
            comp = (t if t > dep else dep) + 1
            result = fn(*vals)
            if dst is not None:
                regs[dst] = result if result is not None else 0
                ready[dst] = comp
            retire(comp)

        return (PLAIN, step)

    def _compile_read_shared(self, stmt):
        ctx = self.ctx
        regs, ready = ctx.regs, ctx.ready
        tstats = ctx.stats
        acquire, retire = self._acquire, self._retire
        shared_read = self.env.shared.read
        dst, var = stmt.dst, stmt.var

        def step():
            t = acquire(ctx.cursor)
            ctx.cursor = t
            tstats.uops += 1
            regs[dst] = shared_read(var)
            ready[dst] = t + 1
            retire(t + 1)

        return (PLAIN, step)

    def _compile_write_shared(self, stmt):
        ctx = self.ctx
        ready = ctx.ready
        tstats = ctx.stats
        acquire, retire = self._acquire, self._retire
        shared_write = self.env.shared.write
        var = stmt.var
        get_val = self._val_getter(stmt.value)
        vname = self._ready_name(stmt.value)
        ready_get = ready.get

        def step():
            value = get_val()
            t = acquire(ctx.cursor)
            ctx.cursor = t
            tstats.uops += 1
            shared_write(var, value)
            dep = ready_get(vname, 0.0) if vname is not None else 0.0
            retire((t if t > dep else dep) + 1)

        return (PLAIN, step)

    def _compile_atomic_rmw(self, stmt):
        static = self._static_binding(stmt.array)
        if static is None:
            return self._compile_atomic_rmw_dynamic(stmt)
        ctx = self.ctx
        regs, ready = ctx.regs, ctx.ready
        tstats = ctx.stats
        acquire = self._acquire
        rob, rob_size = ctx.rob, ctx.rob_size
        mshr, mshrs = ctx.mshr, ctx.config.mshrs
        tracer, tname = self._tracer, self._tname
        core = ctx.core
        overhead = self.env.atomic_overhead
        dst = stmt.dst
        opfn = _PYTHON_BINARY[stmt.op]
        iname, iconst = self._reader(stmt.index)
        vname, vconst = self._reader(stmt.value)
        ready_get = ready.get
        data = static.data
        base = static.base
        esize = static.elem_size
        sname = static.name
        mem = ctx.mem
        shift = mem.LINE_SHIFT
        l1 = mem.l1[core]
        l1_sets = l1.sets
        scount = l1.sets_count
        l1_ways = l1.ways
        l1_stats = l1.stats
        cfg = ctx.config
        l1_lat = cfg.l1.latency
        pf_on = cfg.prefetch_enabled
        pf_deg = cfg.prefetch_degree
        below_l1 = mem.miss_below_l1
        pf_streams = mem.prefetchers[core].streams
        max_stride = mem.prefetchers[core].MAX_STRIDE
        prefetch_one = mem._prefetch

        def step():
            idx = regs[iname] if iname is not None else iconst
            value = regs[vname] if vname is not None else vconst
            # acquire x3: load-linked, op, store-conditional
            t = acquire(acquire(acquire(ctx.cursor)))
            ctx.cursor = t
            tstats.uops += 3
            dep = ready_get(iname, 0.0) if iname is not None else 0.0
            if vname is not None:
                r = ready_get(vname, 0.0)
                if r > dep:
                    dep = r
            start = t if t > dep else dep
            addr = base + idx * esize
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
                if entry is None:
                    l1_sets[sindex] = [tag]
                else:
                    entry.insert(0, tag)
                    if len(entry) > l1_ways:
                        entry.pop()
                l1_stats.misses += 1
                latency = below_l1(core, line, start)
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
            comp = start + latency + overhead
            old = data[idx]
            data[idx] = opfn(old, value)
            if dst is not None:
                regs[dst] = old
                ready[dst] = comp
            tstats.loads += 1
            # mshr
            if len(mshr) >= mshrs:
                oldest = mshr.popleft()
                cur = ctx.cursor
                if oldest > cur:
                    tstats.mem_stall += oldest - cur
                    if tracer is not None:
                        tracer.stall(tname, "mem", cur, oldest)
                    ctx.cursor = oldest
            mshr.append(comp)
            # retire
            r = comp
            last = ctx.rob_last
            if r < last:
                r = last
            ctx.rob_last = r
            if len(rob) >= rob_size:
                oldest = rob.popleft()
                cur = ctx.cursor
                if oldest > cur:
                    tstats.mem_stall += oldest - cur
                    if tracer is not None:
                        tracer.stall(tname, "mem", cur, oldest)
                    ctx.cursor = oldest
            rob.append(r)

        return (PLAIN, step)

    def _compile_atomic_rmw_dynamic(self, stmt):
        ctx = self.ctx
        regs, ready = ctx.regs, ctx.ready
        tstats = ctx.stats
        acquire, retire = self._acquire, self._retire
        mshr_claim, mem_access = self._mshr_claim, self._mem_access
        core = ctx.core
        overhead = self.env.atomic_overhead
        dst = stmt.dst
        opfn = _PYTHON_BINARY[stmt.op]
        get_binding = self._binding_getter(stmt.array)
        get_idx = self._val_getter(stmt.index)
        get_val = self._val_getter(stmt.value)
        iname = self._ready_name(stmt.index)
        vname = self._ready_name(stmt.value)
        ready_get = ready.get

        def step():
            binding = get_binding()
            idx = get_idx()
            value = get_val()
            t = acquire(ctx.cursor)
            t = acquire(t)
            t = acquire(t)
            ctx.cursor = t
            tstats.uops += 3
            dep = ready_get(iname, 0.0) if iname is not None else 0.0
            if vname is not None:
                r = ready_get(vname, 0.0)
                if r > dep:
                    dep = r
            start = t if t > dep else dep
            addr = binding.base + idx * binding.elem_size
            latency = mem_access(core, addr, start, stream_id=binding.name)
            comp = start + latency + overhead
            data = binding.data
            old = data[idx]
            data[idx] = opfn(old, value)
            if dst is not None:
                regs[dst] = old
                ready[dst] = comp
            tstats.loads += 1
            mshr_claim(comp)
            retire(comp)

        return (PLAIN, step)

    def _compile_comment(self, stmt):
        return None

    def _compile_break(self, stmt):
        signal = ("break", stmt.levels)
        return (PLAIN, lambda: signal)

    def _compile_continue(self, stmt):
        signal = ("continue", 1)
        return (PLAIN, lambda: signal)

    # -- control flow -------------------------------------------------------

    def _compile_if(self, stmt):
        ctx = self.ctx
        regs, ready = ctx.regs, ctx.ready
        tstats = ctx.stats
        acquire = self._acquire
        pred = ctx.pred
        ptable = pred.table
        pmask = pred.mask
        phmask = pred.history_mask
        tracer, tname = self._tracer, self._tname
        penalty = self._penalty
        pc = self.pcs[id(stmt)]
        cname, cconst = self._reader(stmt.cond)
        ready_get = ready.get
        then_mode, then_fn = self._compile_body(stmt.then_body)
        else_mode, else_fn = self._compile_body(stmt.else_body or [])

        def branch_head():
            """Shared timing prologue; returns the taken flag."""
            cond = regs[cname] if cname is not None else cconst
            taken = True if cond else False
            t = acquire(ctx.cursor)
            ctx.cursor = t
            tstats.uops += 1
            # gshare predict_and_update (branch.py), inlined
            history = pred.history
            pindex = (pc ^ history) & pmask
            counter = ptable[pindex]
            if taken:
                if counter < 3:
                    ptable[pindex] = counter + 1
            else:
                if counter > 0:
                    ptable[pindex] = counter - 1
            pred.history = ((history << 1) | (1 if taken else 0)) & phmask
            if (counter >= 2) != taken:
                dep = ready_get(cname, 0.0) if cname is not None else 0.0
                resolve = t if t > dep else dep
                target = resolve + penalty
                tstats.mispredicts += 1
                tstats.branch_stall += target - t
                if tracer is not None and target > t:
                    tracer.stall(tname, "branch", t, target)
                ctx.cursor = target
            return taken

        top = then_mode if then_mode > else_mode else else_mode
        if top < GEN:
            # PLAIN bodies return None/tuple, which is also valid under the
            # MAYBE contract, so one pass-through step covers both modes.
            def step():
                if branch_head():
                    return then_fn() if then_fn is not None else None
                return else_fn() if else_fn is not None else None

            return (top, step)

        def step_gen():
            if branch_head():
                mode, fn = then_mode, then_fn
            else:
                mode, fn = else_mode, else_fn
            if fn is None:
                return None
            if mode == GEN:
                return (yield from fn())
            signal = fn()
            if signal is not None and mode == MAYBE and type(signal) is not tuple:
                return (yield from signal)
            return signal

        return (GEN, step_gen)

    def _compile_for(self, stmt):
        ctx = self.ctx
        regs, ready = ctx.regs, ctx.ready
        tstats = ctx.stats
        acquire = self._acquire
        pred = ctx.pred
        ptable = pred.table
        pmask = pred.mask
        phmask = pred.history_mask
        tracer, tname = self._tracer, self._tname
        penalty = self._penalty
        pc = self.pcs[id(stmt)]
        var = stmt.var
        lo_name, lo_const = self._reader(stmt.lo)
        hi_name, hi_const = self._reader(stmt.hi)
        st_name, st_const = self._reader(stmt.step)
        ready_get = ready.get
        body_mode, body_fn = self._compile_body(stmt.body)

        def loop_head(taken, bound_dep):
            """Per-iteration loop-control timing (issue 3, predict, redirect)."""
            # acquire x3: increment, compare, branch
            t = acquire(acquire(acquire(ctx.cursor)))
            ctx.cursor = t
            tstats.uops += 3
            # gshare predict_and_update (branch.py), inlined
            history = pred.history
            pindex = (pc ^ history) & pmask
            counter = ptable[pindex]
            if taken:
                if counter < 3:
                    ptable[pindex] = counter + 1
            else:
                if counter > 0:
                    ptable[pindex] = counter - 1
            pred.history = ((history << 1) | (1 if taken else 0)) & phmask
            if (counter >= 2) != taken:
                resolve = t if t > bound_dep else bound_dep
                target = resolve + penalty
                tstats.mispredicts += 1
                stall = target - t
                tstats.branch_stall += stall if stall > 0.0 else 0.0
                if target > t:
                    if tracer is not None:
                        tracer.stall(tname, "branch", t, target)
                    ctx.cursor = target

        def bounds():
            lo = regs[lo_name] if lo_name is not None else lo_const
            hi = regs[hi_name] if hi_name is not None else hi_const
            step = regs[st_name] if st_name is not None else st_const
            dep = ready_get(lo_name, 0.0) if lo_name is not None else 0.0
            if hi_name is not None:
                r = ready_get(hi_name, 0.0)
                if r > dep:
                    dep = r
            return lo, hi, step, dep

        if body_mode == PLAIN:

            def step():
                i, hi, stp, bound_dep = bounds()
                while True:
                    taken = i < hi
                    loop_head(taken, bound_dep)
                    if not taken:
                        break
                    regs[var] = i
                    ready[var] = ctx.cursor
                    signal = body_fn() if body_fn is not None else None
                    if signal is not None:
                        kind, levels = signal
                        if kind == "continue":
                            pass
                        elif kind == "break":
                            if levels > 1:
                                return ("break", levels - 1)
                            break
                        else:
                            return signal
                    i += stp
                return None

            return (PLAIN, step)

        if body_mode == MAYBE:

            def resume(cont, i, hi, stp, bound_dep):
                """Finish the blocked iteration, then keep looping."""
                signal = yield from cont
                while True:
                    if signal is not None:
                        kind, levels = signal
                        if kind == "continue":
                            pass
                        elif kind == "break":
                            if levels > 1:
                                return ("break", levels - 1)
                            return None
                        else:
                            return signal
                    i += stp
                    taken = i < hi
                    loop_head(taken, bound_dep)
                    if not taken:
                        return None
                    regs[var] = i
                    ready[var] = ctx.cursor
                    signal = body_fn()
                    if signal is not None and type(signal) is not tuple:
                        signal = yield from signal

            def step():
                i, hi, stp, bound_dep = bounds()
                while True:
                    taken = i < hi
                    loop_head(taken, bound_dep)
                    if not taken:
                        return None
                    regs[var] = i
                    ready[var] = ctx.cursor
                    signal = body_fn()
                    if signal is not None:
                        if type(signal) is not tuple:
                            return resume(signal, i, hi, stp, bound_dep)
                        kind, levels = signal
                        if kind == "continue":
                            pass
                        elif kind == "break":
                            if levels > 1:
                                return ("break", levels - 1)
                            return None
                        else:
                            return signal
                    i += stp

            return (MAYBE, step)

        def step_gen():
            i, hi, stp, bound_dep = bounds()
            while True:
                taken = i < hi
                loop_head(taken, bound_dep)
                if not taken:
                    break
                regs[var] = i
                ready[var] = ctx.cursor
                signal = yield from body_fn()
                if signal is not None:
                    kind, levels = signal
                    if kind == "continue":
                        pass
                    elif kind == "break":
                        if levels > 1:
                            return ("break", levels - 1)
                        break
                    else:
                        return signal
                i += stp
            return None

        return (GEN, step_gen)

    def _compile_loop(self, stmt):
        body_mode, body_fn = self._compile_body(stmt.body)
        if body_fn is None:
            raise SimulationError("loop with empty body never terminates")

        if body_mode == PLAIN:

            def step():
                while True:
                    signal = body_fn()
                    if signal is not None:
                        kind, levels = signal
                        if kind == "continue":
                            continue
                        if kind == "break":
                            if levels > 1:
                                return ("break", levels - 1)
                            return None
                        return signal

            return (PLAIN, step)

        if body_mode == MAYBE:

            def resume(cont):
                """Finish the blocked iteration, then keep looping."""
                signal = yield from cont
                while True:
                    if signal is not None:
                        kind, levels = signal
                        if kind == "continue":
                            pass
                        elif kind == "break":
                            if levels > 1:
                                return ("break", levels - 1)
                            return None
                        else:
                            return signal
                    signal = body_fn()
                    if signal is not None and type(signal) is not tuple:
                        signal = yield from signal

            def step():
                while True:
                    signal = body_fn()
                    if signal is not None:
                        if type(signal) is not tuple:
                            return resume(signal)
                        kind, levels = signal
                        if kind == "continue":
                            continue
                        if kind == "break":
                            if levels > 1:
                                return ("break", levels - 1)
                            return None
                        return signal

            return (MAYBE, step)

        def step_gen():
            while True:
                signal = yield from body_fn()
                if signal is not None:
                    kind, levels = signal
                    if kind == "continue":
                        continue
                    if kind == "break":
                        if levels > 1:
                            return ("break", levels - 1)
                        return None
                    return signal

        return (GEN, step_gen)

    # -- queues -------------------------------------------------------------

    def _make_enq(self, queue, vname, vconst):
        """MAYBE step for a point-to-point enqueue (enq / enq_ctrl).

        The plain call covers the non-blocking case end to end; a full
        queue returns the ``blocked`` generator continuation instead, which
        replays the interpreter's wait-retry-stall sequence.
        """
        ctx = self.ctx
        regs = ctx.regs
        tstats = ctx.stats
        acquire = self._acquire
        rob, rob_size = ctx.rob, ctx.rob_size
        tracer, tname = self._tracer, self._tname
        task = ctx.task
        try_enq = queue.try_enq
        ready_get = ctx.ready.get
        block_key = ("enq", queue.qid)
        entries = queue.entries
        slot_free = queue.slot_free
        qlat = queue.latency
        qtracer = queue.tracer
        qlabel = queue.label

        def finish(t, start):
            """Post-enqueue bookkeeping shared by both paths."""
            comp = (t if t > start else start) + 1
            # retire
            r = comp
            last = ctx.rob_last
            if r < last:
                r = last
            ctx.rob_last = r
            if len(rob) >= rob_size:
                oldest = rob.popleft()
                cur = ctx.cursor
                if oldest > cur:
                    tstats.mem_stall += oldest - cur
                    if tracer is not None:
                        tracer.stall(tname, "mem", cur, oldest)
                    ctx.cursor = oldest
            rob.append(r)

        def blocked(value, start):
            wait_from = ctx.cursor
            t = None
            while t is None:
                task.block(block_key)
                queue.waiting_producers.append(task)
                yield BLOCKED
                t = try_enq(start if start > ctx.cursor else ctx.cursor, value, 0.0)
            if t > ctx.cursor:
                tstats.queue_stall += t - wait_from
                if tracer is not None:
                    tracer.stall(tname, "queue", wait_from, t)
                ctx.cursor = t
            finish(t, start)

        def step():
            value = regs[vname] if vname is not None else vconst
            t0 = acquire(ctx.cursor)
            ctx.cursor = t0
            tstats.uops += 1
            dep = ready_get(vname, 0.0) if vname is not None else 0.0
            start = t0 if t0 > dep else dep
            # try_enq (queues.py), inlined
            if not slot_free:
                queue.full_blocks += 1
                return blocked(value, start)
            freed_at = slot_free.popleft()
            t = freed_at if freed_at > start else start
            entries.append((value, t + qlat))
            queue.total_enqs += 1
            occupancy = len(entries)
            if occupancy > queue.max_occupancy:
                queue.max_occupancy = occupancy
            if qtracer is not None:
                qtracer.counter(qlabel, t, occupancy)
            if queue.waiting_consumers:
                waiters = queue.waiting_consumers
                queue.waiting_consumers = []
                for waiter in waiters:
                    waiter.wake()
            if t > start:
                tstats.queue_stall += t - t0
                if tracer is not None:
                    tracer.stall(tname, "queue", t0, t)
                ctx.cursor = t
            # finish, inlined
            comp = (t if t > start else start) + 1
            r = comp
            last = ctx.rob_last
            if r < last:
                r = last
            ctx.rob_last = r
            if len(rob) >= rob_size:
                oldest = rob.popleft()
                cur = ctx.cursor
                if oldest > cur:
                    tstats.mem_stall += oldest - cur
                    if tracer is not None:
                        tracer.stall(tname, "mem", cur, oldest)
                    ctx.cursor = oldest
            rob.append(r)
            return None

        return (MAYBE, step)

    def _compile_enq(self, stmt):
        queue = self.env.queue_of(self, stmt.queue)
        vname, vconst = self._reader(stmt.value)
        return self._make_enq(queue, vname, vconst)

    def _compile_enq_ctrl(self, stmt):
        queue = self.env.queue_of(self, stmt.queue)
        return self._make_enq(queue, None, stmt.ctrl)

    def _enq_core(self):
        """One generator shared by the distributed enqueue flavours.

        Mirrors ``StageInterp.do_enq`` exactly: only an architecturally full
        queue blocks the thread; in-flight values ride the entry timestamp.
        """
        ctx = self.ctx
        tstats = ctx.stats
        acquire, retire = self._acquire, self._retire
        tracer, tname = self._tracer, self._tname
        task = ctx.task

        def enq_core(queue, value, dep, extra, block_key):
            t0 = acquire(ctx.cursor)
            ctx.cursor = t0
            tstats.uops += 1
            start = t0 if t0 > dep else dep
            t = queue.try_enq(start, value, extra)
            if t is None:
                wait_from = ctx.cursor
                while t is None:
                    task.block(block_key)
                    queue.waiting_producers.append(task)
                    yield BLOCKED
                    t = queue.try_enq(
                        start if start > ctx.cursor else ctx.cursor, value, extra
                    )
                if t > ctx.cursor:
                    tstats.queue_stall += t - wait_from
                    if tracer is not None:
                        tracer.stall(tname, "queue", wait_from, t)
                    ctx.cursor = t
            elif t > start:
                tstats.queue_stall += t - ctx.cursor
                if tracer is not None:
                    tracer.stall(tname, "queue", ctx.cursor, t)
                ctx.cursor = t
            retire((t if t > start else start) + 1)

        return enq_core

    def _compile_enq_dist(self, stmt):
        env = self.env
        qid = stmt.queue
        get_rep = self._val_getter(stmt.replica)
        get_val = self._val_getter(stmt.value)
        vname = self._ready_name(stmt.value)
        ready_get = self.ctx.ready.get
        enq_core = self._enq_core()
        block_key = ("enq", qid)
        interp = self

        def step_gen():
            replica = get_rep()
            queue, extra = env.remote_queue(interp, qid, replica)
            dep = ready_get(vname, 0.0) if vname is not None else 0.0
            yield from enq_core(queue, get_val(), dep, extra, block_key)

        return (GEN, step_gen)

    def _compile_enq_ctrl_dist(self, stmt):
        env = self.env
        qid = stmt.queue
        ctrl = stmt.ctrl
        enq_core = self._enq_core()
        block_key = ("enq", qid)
        interp = self

        def step_gen():
            for queue, extra in env.all_replica_queues(interp, qid):
                yield from enq_core(queue, ctrl, 0.0, extra, block_key)

        return (GEN, step_gen)

    def _compile_deq(self, stmt):
        ctx = self.ctx
        regs, ready = ctx.regs, ctx.ready
        tstats = ctx.stats
        acquire = self._acquire
        rob, rob_size = ctx.rob, ctx.rob_size
        tracer, tname = self._tracer, self._tname
        task = ctx.task
        dst = stmt.dst
        qid = stmt.queue
        queue = self.env.queue_of(self, qid)
        try_deq = queue.try_deq
        has_handler = qid in self.handlers
        chandlers = self._chandlers
        block_key = ("deq", qid)
        entries = queue.entries
        slot_free = queue.slot_free
        qtracer = queue.tracer
        qlabel = queue.label

        def finish(t):
            """Post-dequeue bookkeeping (the inline retire)."""
            comp = t + 1
            r = comp
            last = ctx.rob_last
            if r < last:
                r = last
            ctx.rob_last = r
            if len(rob) >= rob_size:
                oldest = rob.popleft()
                cur = ctx.cursor
                if oldest > cur:
                    tstats.mem_stall += oldest - cur
                    if tracer is not None:
                        tracer.stall(tname, "mem", cur, oldest)
                    ctx.cursor = oldest
            rob.append(r)

        def deq_gen(handler, missed):
            """Full generator dequeue loop.

            ``missed=True`` enters mid-state: the plain step has already
            issued the acquire and seen the first ``try_deq`` come up empty.
            """
            while True:
                if missed:
                    missed = False
                    res = None
                else:
                    t0 = acquire(ctx.cursor)
                    ctx.cursor = t0
                    tstats.uops += 1
                    res = try_deq(t0)
                if res is None:
                    wait_from = ctx.cursor
                    while res is None:
                        task.block(block_key)
                        queue.waiting_consumers.append(task)
                        yield BLOCKED
                        res = try_deq(ctx.cursor)
                    value, t = res
                    if t > ctx.cursor:
                        stall = t - wait_from
                        tstats.queue_stall += stall if stall > 0.0 else 0.0
                        if tracer is not None and t > wait_from:
                            tracer.stall(tname, "queue", wait_from, t)
                        ctx.cursor = t
                else:
                    value, t = res
                finish(t)
                if handler is not None and type(value) is Ctrl:
                    regs["%ctrl"] = value
                    ready["%ctrl"] = t
                    h_mode, h_fn = handler
                    if h_fn is None:
                        signal = None
                    elif h_mode == GEN:
                        signal = yield from h_fn()
                    else:
                        signal = h_fn()
                        if signal is not None and h_mode == MAYBE and type(signal) is not tuple:
                            signal = yield from signal
                    if signal is not None:
                        return signal  # typically ('break', n) out of the loop
                    continue  # handler fell through: retry the dequeue
                regs[dst] = value
                ready[dst] = t
                return None

        def after_handler(cont, handler):
            """Finish a blocked MAYBE handler, then re-enter the deq loop."""
            signal = yield from cont
            if signal is not None:
                return signal
            return (yield from deq_gen(handler, False))

        def run_gen_handler(h_fn, handler):
            """Run a GEN handler, then re-enter the deq loop."""
            signal = yield from h_fn()
            if signal is not None:
                return signal
            return (yield from deq_gen(handler, False))

        def step():
            handler = chandlers.get(qid) if has_handler else None
            while True:
                t0 = acquire(ctx.cursor)
                ctx.cursor = t0
                tstats.uops += 1
                # try_deq (queues.py), inlined
                if not entries:
                    queue.empty_blocks += 1
                    return deq_gen(handler, True)
                value, avail = entries.popleft()
                t = avail if avail > t0 else t0
                slot_free.append(t)
                queue.total_deqs += 1
                if qtracer is not None:
                    qtracer.counter(qlabel, t, len(entries))
                if queue.waiting_producers:
                    waiters = queue.waiting_producers
                    queue.waiting_producers = []
                    for waiter in waiters:
                        waiter.wake()
                # finish, inlined
                comp = t + 1
                r = comp
                last = ctx.rob_last
                if r < last:
                    r = last
                ctx.rob_last = r
                if len(rob) >= rob_size:
                    oldest = rob.popleft()
                    cur = ctx.cursor
                    if oldest > cur:
                        tstats.mem_stall += oldest - cur
                        if tracer is not None:
                            tracer.stall(tname, "mem", cur, oldest)
                        ctx.cursor = oldest
                rob.append(r)
                if handler is not None and type(value) is Ctrl:
                    regs["%ctrl"] = value
                    ready["%ctrl"] = t
                    h_mode, h_fn = handler
                    if h_fn is None:
                        continue
                    if h_mode == GEN:
                        return run_gen_handler(h_fn, handler)
                    signal = h_fn()
                    if signal is None:
                        continue
                    if type(signal) is not tuple:
                        return after_handler(signal, handler)
                    return signal
                regs[dst] = value
                ready[dst] = t
                return None

        return (MAYBE, step)

    def _compile_peek(self, stmt):
        ctx = self.ctx
        regs, ready = ctx.regs, ctx.ready
        tstats = ctx.stats
        acquire, retire = self._acquire, self._retire
        tracer, tname = self._tracer, self._tname
        task = ctx.task
        dst = stmt.dst
        qid = stmt.queue
        queue = self.env.queue_of(self, qid)
        try_peek = queue.try_peek
        block_key = ("peek", qid)

        def blocked():
            wait_from = ctx.cursor
            res = None
            while res is None:
                task.block(block_key)
                queue.waiting_consumers.append(task)
                yield BLOCKED
                res = try_peek(ctx.cursor)
            value, t = res
            if t > ctx.cursor:
                stall = t - wait_from
                tstats.queue_stall += stall if stall > 0.0 else 0.0
                if tracer is not None and t > wait_from:
                    tracer.stall(tname, "queue", wait_from, t)
                ctx.cursor = t
            regs[dst] = value
            ready[dst] = t
            retire(t + 1)

        def step():
            t0 = acquire(ctx.cursor)
            ctx.cursor = t0
            tstats.uops += 1
            res = try_peek(t0)
            if res is None:
                return blocked()
            value, t = res
            regs[dst] = value
            ready[dst] = t
            retire(t + 1)
            return None

        return (MAYBE, step)

    def _compile_barrier(self, stmt):
        ctx = self.ctx
        tstats = ctx.stats
        env = self.env
        tracer, tname = self._tracer, self._tname
        task = ctx.task
        block_key = ("barrier", stmt.tag)

        def step_gen():
            barrier = env.barrier  # installed after stage setup
            release = barrier.arrive(task, ctx.cursor)
            if release is None:
                task.block(block_key)
                yield BLOCKED
                release = barrier.last_release
            if release > ctx.cursor:
                tstats.barrier_stall += release - ctx.cursor
                if tracer is not None:
                    tracer.stall(tname, "barrier", ctx.cursor, release)
                ctx.cursor = release

        return (GEN, step_gen)

    # -- top level ----------------------------------------------------------

    def run(self):
        """Top-level generator executed by the scheduler."""
        ctx = self.ctx
        ctx.stats.start_cycle = ctx.cursor
        # The compiled closures capture ``self``. Held by this frame (and,
        # for handlers, by the dict the deq closures already captured)
        # instead of by the instance, they die with the run and a finished
        # simulation is not a reference cycle.
        mode, fn = self._body
        self._body = self._chandlers = None
        if fn is None:
            signal = None
        elif mode == GEN:
            signal = yield from fn()
        else:
            signal = fn()
            if signal is not None and mode == MAYBE and type(signal) is not tuple:
                signal = yield from signal
        if signal is not None and signal is not _HALT:
            raise SimulationError(
                "stage %s finished with dangling control signal %r"
                % (self.stage.name, signal)
            )
        ctx.stats.end_cycle = ctx.cursor
        self.env.on_thread_done(self)
