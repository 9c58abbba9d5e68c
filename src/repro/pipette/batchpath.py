"""Batch-advance execution engine: whole-stage compilation to one generator.

The fast path (:mod:`repro.pipette.fastpath`) removed per-statement *kind*
dispatch but still pays one specialized-closure call, several ``dict``
lookups (registers, ready times), and the three-mode step protocol per
statement. Profiling a QUICK ``bfs`` run shows those per-statement costs —
not the scheduler — dominate: ~9M closure calls and ~2.6M ``dict.get``
calls against only ~19k scheduler resumes.

This engine removes the remaining per-statement machinery by compiling each
stage's whole region tree into **one generated Python generator function**:

* registers and their ready cycles become *frame locals* (name-mangled
  ``R<n>``/``Y<n>``), so dependence tracking is local-variable access, not
  dict traffic; generator frames preserve locals across ``yield``;
* control flow (``if``/``for``/``loop``/``break``/``continue``, control
  handlers) becomes native Python control flow; multi-level breaks
  propagate through a ``_sig`` counter that mirrors the interpreter's
  ``('break', n)`` / ``('continue', 1)`` signals exactly;
* the timing primitives (issue-ledger acquire, ROB retire, MSHR claim, L1
  hit + stride-prefetcher observe, gshare predict) are emitted inline,
  transcribed from the reference interpreter — the same arithmetic in the
  same order on the same shared structures — around two invariants the
  generated code keeps instead of re-deriving per micro-op: the issue
  cycle under the cursor and a per-run proof that the ROB cannot stall
  (see "the clock" in :class:`_StageCompiler`). Each primitive
  has one spelling here, an emitter, next to the reference's method;
  everything past an L1 hit is not spelled here at all but called
  (``MemorySystem.l1_miss``);
* machine-configuration constants (issue width, ROB/MSHR sizes, cache
  geometry, latencies, branch PCs) are baked into the source as literals;
* the generator ``yield``\\ s only at true blocking points (queue
  full/empty, barrier), through one wait emitter. Between those the stage
  runs as straight-line compiled Python and the clock moves, never by
  stepping cycles, through exactly two emitters: an acquire, and an
  advance to a timestamp a component already holds (a queue entry's
  visibility cycle, an MSHR/ROB head's completion, a barrier release, a
  branch redirect target) — the closed forms are inlined in the generated
  text, nothing is queried.

Bit-identical stats discipline
------------------------------

Thread-private hot state is mirrored in frame locals (``cur`` for
``ctx.cursor``, ``rlast`` for ``ctx.rob_last``, the gshare history, and the
:class:`~repro.pipette.stats.ThreadStats` counters listed in
``stats.MIRROR_COUNTERS`` / ``stats.MIRROR_STALLS``: every per-thread count
a stage writes, its micro-ops, loads, mispredicts and stall buckets).
Mirrors are flushed back to the context before **every** ``yield`` and at
stage completion, so anything that can observe the thread from outside
between resumes — the scheduler's heap key (``task.time`` ->
``ctx.cursor``), tracer spans, deadlock reports — sees exactly the state
the reference interpreter would expose. Shared structures (issue-ledger
slots, queues, caches, DRAM windows) are never mirrored; only their
add-only integer counts (a queue's enqueue/dequeue totals, L1 hits)
accumulate as local deltas, flushed at the same points, and
``SimStats.queue_enqs``/``queue_deqs`` are not written here at all
(``Machine.run`` reads them off the queues when the run ends). Everything
else the generated code mutates directly with the interpreter's exact
update sequences, so stall/occupancy
accrual stays a *closed-form replay* of the per-statement arithmetic — the
float additions happen in the same order on the same values, which is why
the accrued buckets are bit-identical rather than merely close.

Stages the compiler cannot express (recursive control handlers, unknown
statement kinds) fall back to the reference :class:`~repro.pipette.interp.
StageInterp` per stage; the run then mixes engines per stage but stays
bit-identical, since every engine replays the same arithmetic. The result
records which engine executed each stage and why a stage fell back
(``RunResult.stage_engines`` / ``stage_fallbacks``).

This module only *describes* a stage as source text. Turning text into a
function — once per process, or not at all when another process already
did — is :mod:`repro.pipette.stagecode`. Everything run-specific (queues,
arrays, contexts, numeric immediates) reaches the function through its one
argument, so equal text means one shared function.

The reference interpreter remains the conformance oracle: see
``tests/pipette/test_fastpath_conformance.py`` (engine matrix) and the
engine-differential fuzzer in ``tests/test_compiler_fuzz.py``.
"""

import math
from collections import deque, namedtuple

from ..errors import SimulationError
from ..ir.ops import TERNARY_OPS, _checked_div, _checked_mod
from .interp import StageInterp, _assign_pcs
from .stagecode import stage_function
from .stats import MIRROR_COUNTERS, MIRROR_STALLS

__all__ = ["BatchStageInterp", "UnsupportedStage"]


class UnsupportedStage(Exception):
    """Raised by the stage compiler when a stage shape cannot be expressed;
    the factory falls back to the reference interpreter for that stage."""


#: Generated-source size guard: a pathological handler-inline blowup falls
#: back to the reference interpreter instead of compiling a megabyte of
#: Python.
_MAX_LINES = 20000

#: Mirror-local names for the ThreadStats counters, in field order.
_STAT_LOCALS = {
    "uops": "u",
    "loads": "ld",
    "mispredicts": "mp",
    "queue_stall": "qs",
    "mem_stall": "ms",
    "branch_stall": "bs",
    "barrier_stall": "bars",
}

#: ``assign`` ops as source expressions over operand expressions a/b/c.
#: div/mod call the shared checked helpers so error behavior (and C
#: truncation semantics) is the interpreter's own code, not a copy.
_BINARY_EXPR = {
    "add": "({a} + {b})",
    "sub": "({a} - {b})",
    "mul": "({a} * {b})",
    "div": "_div({a}, {b})",
    "mod": "_mod({a}, {b})",
    "and": "(int({a}) & int({b}))",
    "or": "(int({a}) | int({b}))",
    "xor": "(int({a}) ^ int({b}))",
    "shl": "(int({a}) << int({b}))",
    "shr": "(int({a}) >> int({b}))",
    "lt": "(1 if {a} < {b} else 0)",
    "le": "(1 if {a} <= {b} else 0)",
    "gt": "(1 if {a} > {b} else 0)",
    "ge": "(1 if {a} >= {b} else 0)",
    "eq": "(1 if {a} == {b} else 0)",
    "ne": "(1 if {a} != {b} else 0)",
    "min": "({a} if {a} < {b} else {b})",
    "max": "({a} if {a} > {b} else {b})",
    "pack2": "({a}, {b})",
}

_UNARY_EXPR = {
    "neg": "(-{a})",
    "not": "(0 if {a} else 1)",
    "mov": "{a}",
    "fst": "{a}[0]",
    "snd": "{a}[1]",
}


#: Statement kinds that may join a straight-line run (retire at most once,
#: no nested body) -> their static micro-op count, or None when the
#: statement can ``yield`` (its ``u +=`` must then precede the sync). A
#: ``call`` adds its run-time cost itself.
_RUN_UOPS = {
    "assign": 1,
    "load": 1,
    "store": 1,
    "prefetch": 1,
    "is_control": 1,
    "read_shared": 1,
    "write_shared": 1,
    "atomic_rmw": 3,
    "call": 0,
    "enq": None,
    "enq_ctrl": None,
    "enq_dist": None,
    "deq": None,  # handler-less only: a handler re-runs the dequeue
    "peek": None,
}


#: Source expressions for the binding behind a memory statement's array
#: operand (see ``_StageCompiler.emit_array_site``).
_ArraySite = namedtuple("_ArraySite", "data base elem_size stream")


def _is_reg(operand):
    # Also imported by fastpath.py: the name stays until ROADMAP 1(a).
    return type(operand) is str and not operand.startswith("@")


def _resolve_handle(arrays, operand, value):
    """Pointer-register -> ArrayBinding, mirroring StageInterp.array_binding."""
    if not isinstance(value, str) or not value.startswith("@"):
        raise SimulationError("register %r used as pointer holds %r" % (operand, value))
    found = arrays.get(value[1:])
    if found is None:
        raise SimulationError("unbound array %s" % value)
    return found


def _dangling(stage_name, sig):
    signal = ("continue", 1) if sig < 0 else ("break", sig)
    return SimulationError(
        "stage %s finished with dangling control signal %r" % (stage_name, signal)
    )


class _StageCompiler:
    """Emits the generator-function source for one stage on one thread.

    Loop contexts track what the innermost *generated Python loop* is, so a
    pending control signal (``_sig`` > 0: break that many IR loops;
    ``_sig`` < 0: continue the nearest IR loop) is consumed or propagated
    with exactly the interpreter's semantics:

    * ``for``/``loop`` contexts consume a continue (restart, for-loops
      re-running their increment first) and exit on break, decrementing the
      level count in their epilogue;
    * synthetic loops (the deq handler-retry loop, the top-level body
      wrapper) are transparent: they just break outward, leaving ``_sig``
      for the enclosing context — the interpreter's "return the signal
      verbatim" behavior for non-loop frames.
    """

    def __init__(self, stage, ctx, runenv):
        self.stage = stage
        self.ctx = ctx
        self.env = runenv
        self.pcs = _assign_pcs(stage)
        self.traced = ctx.tracer is not None
        self.lines = []
        self.indent = 2
        self._fresh = 0
        self.regmap = {}
        self.captures = {
            "ctx": ctx,
            "task": ctx.task,
            "env": runenv,
            "tstats": ctx.stats,
            "ledger": ctx.ledger,
            "rob": ctx.rob,
            "mshr": ctx.mshr,
            "pred": ctx.pred,
            "_div": _checked_div,
            "_mod": _checked_mod,
            "_rh": _resolve_handle,
            "_dangle": _dangling,
            "SN": stage.name,
            # Hot builtins rebound as frame locals: the prologue's
            # ``int = C['int']`` turns every use into a LOAD_FAST instead
            # of a namespace-then-builtins LOAD_GLOBAL chain.
            "int": int,
            "ceil": math.ceil,
            "deque": deque,
            "max": max,
            "len": len,
            "type": type,
            "range": range,
        }
        if self.traced:
            self.captures["tracer"] = ctx.tracer
            self.captures["TN"] = ctx.stats.name
        self._immediates = []  # numeric operand values, one per occurrence
        self._queue_locals = set()
        self._enq_qids = set()  # queues enqueued inline (counter deltas live)
        self._deq_qids = set()  # queues dequeued inline
        self._loop_stack = []  # ("for", inc_src) | ("loop", None) | ("syn", None)
        self._handler_stack = []  # qids currently being inlined (recursion guard)
        self._pointer_sites = set()  # pcs of pointer-register memory statements
        # Set by emit_body while it emits a straight-line run.
        self._rob_guarded = False  # retires sit behind the run's ``slow`` flag
        self._fold_uops = False  # the run's ``u +=`` was emitted once, up front
        # Config literals baked into the source.
        cfg = ctx.config
        self.W = cfg.issue_width
        self.ROB = cfg.rob_size
        self.MSHRS = cfg.mshrs
        self.PEN = cfg.mispredict_penalty
        self.cfg = cfg
        mem = ctx.mem
        self.SHIFT = mem.LINE_SHIFT
        l1 = mem.l1[ctx.core]
        self.SCOUNT = l1.sets_count
        self.L1LAT = cfg.l1.latency
        self.PF_ON = cfg.prefetch_enabled
        self.PF_DEG = cfg.prefetch_degree
        self.MAXSTRIDE = mem.prefetchers[ctx.core].MAX_STRIDE
        self.captures["l1_sets"] = l1.sets
        self.captures["l1_stats"] = l1.stats
        # Bound methods are captured here, once: every attribute access
        # builds a new method object, which cap()'s identity check would
        # reject as a collision on the second use in a stage.
        self.captures["l1_miss"] = mem.l1_miss
        self.captures["pf_streams"] = mem.prefetchers[ctx.core].streams
        self.captures["pf_one"] = mem._prefetch

    # -- emission helpers ---------------------------------------------------

    def w(self, text):
        self.lines.append("    " * self.indent + text)
        if len(self.lines) > _MAX_LINES:
            raise UnsupportedStage("generated stage body too large")

    def push(self):
        self.indent += 1

    def pop(self):
        self.indent -= 1

    def fresh(self, base):
        self._fresh += 1
        return "%s%d" % (base, self._fresh)

    def cap(self, name, obj):
        existing = self.captures.get(name)
        if existing is not None and existing is not obj:
            raise UnsupportedStage("capture name collision %r" % name)
        self.captures[name] = obj
        return name

    # -- operand expressions ------------------------------------------------

    def reg(self, name):
        """(value local, ready local) for a register name, allocating once."""
        pair = self.regmap.get(name)
        if pair is None:
            k = len(self.regmap)
            pair = self.regmap[name] = ("R%d" % k, "Y%d" % k)
        return pair

    def val(self, operand):
        if _is_reg(operand):
            return self.reg(operand)[0]
        if type(operand) in (int, float):
            # Numeric immediates bind per run (the ``K`` capture), one
            # local per occurrence, so stages that differ only in such
            # constants — the N workers of a data-parallel kernel, each with
            # its thread id baked into the IR — share one source text and
            # therefore one compiled function.
            self._immediates.append(operand)
            return "K%d" % (len(self._immediates) - 1)
        return repr(operand)

    def rdy(self, operand):
        if _is_reg(operand):
            return self.reg(operand)[1]
        return "0.0"

    def dep2(self, a, b):
        """max(ready(a), ready(b)) as an expression."""
        ra, rb = self.rdy(a), self.rdy(b)
        if ra == "0.0":
            return rb
        if rb == "0.0":
            return ra
        return "(%s if %s > %s else %s)" % (ra, ra, rb, rb)

    # -- the clock: issue ledger, ROB and MSHR, and their invariants -----------
    #
    # The arithmetic is the reference's (IssueLedger.acquire, ThreadCtx.issue
    # / retire / mshr_claim: the same float operations in the same order on
    # the same shared structures); what is written here once is *when* it
    # has to be evaluated. ``cur`` is assigned by two emitters only --
    # :meth:`emit_acquire` and :meth:`emit_advance` -- and the generator
    # suspends in one, :meth:`emit_wait`; each leaves both invariants below
    # in place, so no statement emitter has anything to remember.
    #
    # Ledger cursor -- at every acquire site ``t == float(ceil(cur))``,
    #   ``lc`` is that cycle's index in the ledger's byte window
    #   (``ceil(cur) - ledger.base``, always inside the window) and ``ln`` is
    #   the cycle's true slot count (the write to ``slots[lc]`` is deferred:
    #   co-scheduled threads only read ``slots`` while this generator is
    #   suspended). An acquire leaves ``cur == t``, with ``lc`` and ``t``
    #   stepped together, which is the invariant again; an advance (ROB/MSHR
    #   stall, mispredict redirect, queue or peek wait, barrier release) and
    #   a resume re-establish it through ``resync``. The index shifts only
    #   when a sweep moves ``base``, and a sweep happens only in ``resync``,
    #   which re-derives ``lc`` after it, or while the generator is
    #   suspended, after the pre-``yield`` sync set ``lc = -1``; every
    #   resume resyncs. ``cur`` itself is never rounded: fractional stall
    #   targets stay exact, only the probe cycle is their ceiling, as in the
    #   reference.
    #
    # ROB block guard -- ``ring`` is thread-private and monotone (``rlast``
    #   only grows) and ``cur`` never decreases. The j-th retire of a
    #   straight-line run inspects what was ``ring[j]`` at run entry, so one
    #   ``slow = ring[k-1] > cur`` there (k retires at most, k <= rob_size)
    #   proves that no retire of the run can stall; the per-statement check
    #   only runs under ``if slow``. A ``yield`` inside the run changes
    #   neither fact: nobody else touches the ring, and the cursor a thread
    #   resumes with is the one it blocked with.

    def resync_lines(self):
        """The ``resync`` helper: re-establish the ledger-cursor invariant
        after ``cur`` moved (flush the deferred count, re-probe at the new
        cycle). Defined inside the stage function; outer locals arrive as
        default arguments so none of them becomes a cell.

        Also the one place generated code lets the ledger forget
        (``IssueLedger.prune``): every stage leaves straight-line code
        through here. ``ctx.cursor`` is stale while the stage runs, so the
        sweep first writes the live clock back (nobody reads it before the
        next sync, which writes the same value), and the index is derived
        after the sweep, which moves ``ledger.base`` to at most
        ``ceil(cur)``."""
        return [
            "def resync(cur, lc, ln, slots=slots, grow=grow, ceil=ceil, len=len,"
            " ledger=ledger, ctx=ctx):",
            "    if ln:",
            "        slots[lc] = ln",
            "    if len(slots) > ledger.mark:",
            "        ctx.cursor = cur",
            "        ledger.prune()",
            "    c = ceil(cur)",
            "    lc = c - ledger.base",
            "    if lc >= len(slots):",
            "        grow(lc)",
            "    return lc, slots[lc], c + 0.0",
        ]

    def emit_acquire(self, n=1):
        """IssueLedger.acquire x n + ThreadCtx.issue bookkeeping; leaves
        ``cur == t``. ``n`` is a literal count, or the name of a local
        holding one (an intrinsic's run-time cost). Under the ledger-cursor
        invariant the common case (slots left in the cycle already held) is
        one compare and one increment; a full cycle flushes its count and
        walks to the next cycle with a free slot, exactly the reference's
        probe loop. The walk starts from ``ln = W + 1``, a count no cycle
        holds, so its first step is the loop's own; it steps ``t`` by 1.0
        with ``lc``, exact for any cycle count below 2**53, and grows the
        window when it steps off its end (every cycle past it is free).

        ``slots`` is bound once in the prologue (a sweep and a growth
        change the window in place).
        """
        literal = type(n) is int
        if literal and n > 1:
            # All n chained slots fit in the cycle already held; otherwise
            # take them one by one (each restarts at the previous slot).
            self.w("if ln <= %d:" % (self.W - n))
            self.w("    ln += %d" % n)
            self.w("else:")
            self.push()
        if n != 1:
            self.w("for _ in %s:" % (repr((0,) * n) if literal else "range(%s)" % n))
            self.push()
        self.w("if ln < %d:" % self.W)
        self.w("    ln += 1")
        self.w("else:")
        self.w("    slots[lc] = ln")
        self.w("    ln = %d" % (self.W + 1))
        self.w("    while ln > %d:" % self.W)
        self.w("        lc += 1")
        self.w("        t += 1.0")
        self.w("        if lc == len(slots):")
        self.w("            grow(lc)")
        self.w("        ln = slots[lc] + 1")
        if n != 1:
            self.pop()
        if literal and n > 1:
            self.pop()
        # Only the final slot's cycle is observable (ThreadCtx.issue
        # threads ``t`` through the chain and stores the last).
        self.w("cur = t")
        if not (literal and self._fold_uops):
            self.w("u += %s" % n)

    def emit_advance(self, target, bucket, cond=None, resumed=False):
        """Every other way the clock moves: forward to ``target``, a cycle
        some component already holds (a ROB/MSHR ring head, a mispredict
        redirect, a queue slot or entry timestamp, a barrier release), when
        it still lies ahead. Charges the wait to the ``bucket`` stall,
        records the optional tracer stall, moves ``cur`` and re-establishes
        the ledger-cursor invariant, together. ``cond`` replaces the
        default ``if <target> > cur`` header where the reference tests
        something narrower; it must still imply ``target > cur``.
        ``resumed`` is :meth:`emit_wait`'s: co-scheduled threads used the
        ledger meanwhile, so the resync runs whether or not the clock moves."""
        self.w("%s:" % (cond or "if %s > cur" % target))
        self.w("    %s += %s - cur" % (_STAT_LOCALS[bucket + "_stall"], target))
        if self.traced:
            self.w("    tracer.stall(TN, %r, cur, %s)" % (bucket, target))
        self.w("    cur = %s" % target)
        self.w("%slc, ln, t = resync(cur, lc, ln)" % ("" if resumed else "    "))

    def emit_wait(self, reason, retry, into, bucket, waiters=None):
        """The one place the generator suspends: flush the mirrors, park
        the task (on the ``waiters`` list, unless the blocking call already
        registered it) and, on every wake-up, evaluate ``retry`` until it
        has a result. That result is assigned to ``into``, whose last name
        is the cycle the awaited event happens at: the wait ends with the
        advance to it. ``cur`` is a frame local, so the stage resumes at the
        cycle it blocked at.

        ``#SYNC#`` is a placeholder for :meth:`sync_lines`: queue-counter
        deltas are part of the flush but the full queue set is only known
        once the whole body has been emitted, so :meth:`compile` expands
        the marker afterwards."""
        self.w("#SYNC#")
        self.w("res = None")
        self.w("while res is None:")
        self.w("    task.block(%s)" % reason)
        if waiters:
            self.w("    %s.append(task)" % waiters)
        self.w("    yield BLOCKED")
        self.w("    res = %s" % retry)
        self.w("%s = res" % into)
        self.emit_advance(into.split()[-1], bucket, resumed=True)

    def emit_comp(self, dep_src, latency=1):
        """``comp = max(t, dep) + latency``; a statically-zero dep folds
        away (``t`` is a cursor value, never negative)."""
        if dep_src == "0.0":
            self.w("comp = t + %r" % latency)
        elif dep_src.isidentifier():
            self.w("comp = (t if t > %s else %s) + %r" % (dep_src, dep_src, latency))
        else:
            self.w("dep = %s" % dep_src)
            self.w("comp = (t if t > dep else dep) + %r" % latency)

    def emit_start(self, dep_src):
        """``start = max(t, dep)`` with the same zero-dep fold."""
        if dep_src == "0.0":
            self.w("start = t")
        elif dep_src.isidentifier():
            self.w("start = t if t > %s else %s" % (dep_src, dep_src))
        else:
            self.w("dep = %s" % dep_src)
            self.w("start = t if t > dep else dep")

    def emit_retire(self, comp_expr):
        """ThreadCtx.retire, on the ``rlast``/ring mirrors.

        The ROB deque (pop oldest once at capacity, else just grow) is a
        bounded deque of the last ``rob_size`` retire times: appending drops
        the oldest. It starts prefilled with 0.0: cursors are never
        negative, so popping a sentinel is exactly the reference's
        not-yet-full no-pop case. ``ctx.rob`` itself is thread-private and
        observed by nothing else, so the ring never needs flushing back.

        Inside a guarded run (see :meth:`emit_run_entry`) the head check
        hides behind the run's ``slow`` flag.
        """
        r = comp_expr
        if not comp_expr.isidentifier():
            self.w("r = %s" % comp_expr)
            r = "r"
        self.w("if %s > rlast:" % r)
        self.w("    rlast = %s" % r)
        guard = "if slow and ring[0] > cur" if self._rob_guarded else None
        self.emit_advance("ring[0]", "mem", guard)
        self.w("rpush(rlast)")

    def emit_mshr(self, comp_expr):
        """ThreadCtx.mshr_claim, as a prefilled ring like the ROB. Load
        completions are not monotone, so there is no block guard here."""
        self.emit_advance("mring[0]", "mem")
        self.w("mpush(%s)" % comp_expr)

    def emit_predict(self, pc):
        """GsharePredictor.predict_and_update on the ``ph`` mirror; needs a
        ``taken`` local in scope, leaves ``correct``."""
        self.w("pidx = (%d ^ ph) & pmask" % pc)
        self.w("pctr = ptable[pidx]")
        # Counter update, history shift, and direction check folded into the
        # taken arms: ``(pctr >= 2) == taken`` is ``pctr >= 2`` when taken
        # and ``pctr < 2`` when not.
        self.w("if taken:")
        self.w("    if pctr < 3:")
        self.w("        ptable[pidx] = pctr + 1")
        self.w("    ph = ((ph << 1) | 1) & hmask")
        self.w("    correct = pctr >= 2")
        self.w("else:")
        self.w("    if pctr > 0:")
        self.w("        ptable[pidx] = pctr - 1")
        self.w("    ph = (ph << 1) & hmask")
        self.w("    correct = pctr < 2")

    def emit_redirect(self, dep_src):
        """A mispredicted branch restarts fetch ``mispredict_penalty``
        cycles after it resolves (its slot or its operand, whichever is
        later). The reference clamps the redirect at the cursor for a loop
        branch and not for an ``if``; with a penalty that is not negative
        the target never lies behind the cursor, so both are this advance."""
        self.w("if not correct:")
        self.push()
        self.w("mp += 1")
        if dep_src == "0.0":
            self.w("target = t + %r" % self.PEN)
        else:
            self.w("target = (t if t > %s else %s) + %r" % (dep_src, dep_src, self.PEN))
        self.emit_advance("target", "branch")
        self.pop()

    def sync_lines(self):
        """Flush every mirrored local back to the context/stats objects:
        before every ``yield`` (:meth:`emit_wait`) and at completion, so
        external observers between resumes — scheduler heap keys, tracer
        spans, deadlock reports — see reference-identical state.
        Thread-private mirrors write back absolute values; counters shared
        with other threads (SimStats queue totals, HWQueue counters)
        accumulate as deltas and flush with ``+=`` / max-merge so
        concurrent method-path updates are never overwritten."""
        out = [
            "ctx.cursor = cur",
            "ctx.rob_last = rlast",
            "pred.history = ph",
            # Deferred ledger write (ledger-cursor invariant): other
            # threads read and sweep the window while this one is
            # suspended, so make it authoritative and drop the index. The
            # resume owes a resync, which finds nothing left to flush.
            "if ln:",
            "    slots[lc] = ln",
            "    ln = 0",
            "lc = -1",
            # L1 hit delta: the counter is shared with RAs and co-scheduled
            # threads, so it accumulates locally and flushes additively
            # (ints: exact in any interleaving, also against mem.py's
            # direct updates of the miss-side counters).
            "l1_stats.hits += l1h",
            "l1h = 0",
        ]
        for field in MIRROR_COUNTERS + MIRROR_STALLS:
            out.append("tstats.%s = %s" % (field, _STAT_LOCALS[field]))
        for qid in sorted(self._enq_qids):
            base = "q%d" % qid
            out.append("%s.total_enqs += %s_enqs" % (base, base))
            out.append("%s_enqs = 0" % base)
            out.append("if %s_mo > %s.max_occupancy:" % (base, base))
            out.append("    %s.max_occupancy = %s_mo" % (base, base))
        for qid in sorted(self._deq_qids):
            base = "q%d" % qid
            out.append("%s.total_deqs += %s_deqs" % (base, base))
            out.append("%s_deqs = 0" % base)
        return out

    def emit_l1_access(self, site, store=False):
        """The access at element ``idx`` of an array site, issued at
        ``start``; leaves ``line`` and ``latency``. Inlines the hit side of
        MemorySystem.access (+ stride observe unless a store); everything
        past an L1 hit is mem.py's ``l1_miss``, called."""
        stream = site.stream
        self.w("line = (%s + idx * %s) >> %d" % (site.base, site.elem_size, self.SHIFT))
        self.w("sindex = line %% %d" % self.SCOUNT)
        self.w("tag = line // %d" % self.SCOUNT)
        self.w("entry = l1get(sindex)")
        self.w("if entry is not None and entry[0] == tag:")
        self.w("    l1h += 1")
        self.w("    latency = %r" % self.L1LAT)
        self.w("elif entry is not None and tag in entry:")
        self.w("    pos = entry.index(tag, 1)")
        self.w("    del entry[pos]")
        self.w("    entry.insert(0, tag)")
        self.w("    l1h += 1")
        self.w("    latency = %r" % self.L1LAT)
        self.w("else:")
        self.w("    latency = l1_miss(%d, line, start, sindex, tag, entry)" % self.ctx.core)
        if self.PF_ON and not store:
            self.w("sentry = pfget(%s)" % stream)
            self.w("if sentry is None:")
            self.w("    pf_streams[%s] = (line, 0, 0)" % stream)
            self.w("else:")
            self.w("    last_line, pstride, prun = sentry")
            self.w("    delta = line - last_line")
            self.w("    if delta != 0:")
            self.w(
                "        if delta == pstride and"
                " 0 < (pstride if pstride > 0 else -pstride) <= %d:" % self.MAXSTRIDE
            )
            self.w("            prun = prun + 1 if prun < 8 else 8")
            self.w("            pf_streams[%s] = (line, pstride, prun)" % stream)
            self.w("            if prun >= 2:")
            self.w("                later = start + latency")
            self.w("                for k in range(1, %d):" % (self.PF_DEG + 1))
            self.w("                    pf_one(%d, line + pstride * k, later)" % self.ctx.core)
            self.w("        else:")
            self.w("            pf_streams[%s] = (line, delta, 1)" % stream)

    # -- signal propagation -------------------------------------------------

    def emit_signal_check(self):
        """Consume/propagate a pending control signal at the innermost
        generated Python loop; emitted after every can-signal statement."""
        kind, inc = self._loop_stack[-1]
        self.w("if _sig:")
        if kind == "syn":
            self.w("    break")
        elif kind == "loop":
            self.w("    if _sig < 0:")
            self.w("        _sig = 0")
            self.w("        continue")
            self.w("    break")
        else:  # for: a consumed continue re-runs the increment first
            self.w("    if _sig < 0:")
            self.w("        _sig = 0")
            self.w("        %s" % inc)
            self.w("        continue")
            self.w("    break")

    # -- queue helpers ------------------------------------------------------

    def queue_locals(self, qid):
        """Capture queue ``qid`` and register its per-run locals; returns the
        base name. Queue latency resolves at machine setup (xcore placement),
        so it binds as a capture rather than a literal."""
        base = "q%d" % qid
        queue = self.env.queues[qid]
        self.cap(base, queue)
        self._queue_locals.add(qid)
        return base

    def queue_prologue_lines(self):
        out = []
        for qid in sorted(self._queue_locals):
            base = "q%d" % qid
            out.append("%s_entries = %s.entries" % (base, base))
            out.append("%s_free = %s.slot_free" % (base, base))
            out.append("%s_lat = %s.latency" % (base, base))
            if self.traced:
                out.append("%s_tr = %s.tracer" % (base, base))
                out.append("%s_lbl = %s.label" % (base, base))
        for qid in sorted(self._enq_qids):
            base = "q%d" % qid
            out.append("%s_enqs = 0" % base)
            out.append("%s_mo = %s.max_occupancy" % (base, base))
        for qid in sorted(self._deq_qids):
            out.append("q%d_deqs = 0" % qid)
        return out

    def emit_queue_counter(self, base, t_expr):
        if self.traced:
            self.w("if %s_tr is not None:" % base)
            self.w("    %s_tr.counter(%s_lbl, %s, len(%s_entries))" % (base, base, t_expr, base))

    def emit_wake(self, base, side):
        self.w("if %s.%s:" % (base, side))
        self.w("    _ws = %s.%s" % (base, side))
        self.w("    %s.%s = []" % (base, side))
        self.w("    for _wt in _ws:")
        self.w("        _wt.wake()")

    # -- statement emitters -------------------------------------------------
    # Each returns True when a control signal may be pending afterwards.

    def emit_body(self, body):
        can_signal = False
        body = [stmt for stmt in body if stmt.kind != "comment"]
        run_end = 0
        for pos, stmt in enumerate(body):
            if pos == run_end:
                run_end = self.emit_run_entry(body, pos)
            stepped = self.emit_stmt(stmt)
            if stepped:
                self.emit_signal_check()
                can_signal = True
        self._rob_guarded = self._fold_uops = False
        return can_signal

    def emit_run_entry(self, body, pos):
        """Open the maximal straight-line run starting at ``body[pos]``;
        returns the position one past it (``pos + 1`` when there is none).

        A run is consecutive statements that each retire at most once and
        hold no nested body, cut at ``rob_size`` so its k-th retire still
        inspects an entry-time ring element. Its entry computes the ROB
        block guard; when no statement of the run can ``yield`` (nothing
        observes ``u`` before the next sync) the static micro-op counts
        fold into one add as well."""
        self._rob_guarded = self._fold_uops = False
        end = pos
        uops = 0
        while end < len(body) and end - pos < self.ROB:
            stmt = body[end]
            if stmt.kind not in _RUN_UOPS or (
                stmt.kind == "deq" and stmt.queue in self.stage.handlers
            ):
                break
            if uops is not None:
                step = _RUN_UOPS[stmt.kind]
                uops = None if step is None else uops + step
            end += 1
        if end - pos < 2:
            return pos + 1
        self.w("slow = ring[%d] > cur" % (end - pos - 1))
        self._rob_guarded = True
        if uops:
            self.w("u += %d" % uops)
            self._fold_uops = True
        return end

    def emit_stmt(self, stmt):
        method = getattr(self, "_emit_" + stmt.kind, None)
        if method is None:
            raise UnsupportedStage("unknown statement kind %r" % stmt.kind)
        return method(stmt)

    def _emit_assign(self, stmt):
        op = stmt.op
        args = stmt.args
        if op in _BINARY_EXPR:
            expr = _BINARY_EXPR[op].format(a=self.val(args[0]), b=self.val(args[1]))
            dep = self.dep2(args[0], args[1])
        elif op in TERNARY_OPS:
            expr = "(%s if %s else %s)" % (self.val(args[1]), self.val(args[0]), self.val(args[2]))
            regs = [a for a in args if _is_reg(a)]
            if not regs:
                dep = "0.0"
            elif len(regs) == 1:
                dep = self.rdy(regs[0])
            else:
                dep = "max(%s)" % ", ".join(self.rdy(a) for a in regs)
        elif op in _UNARY_EXPR:
            expr = _UNARY_EXPR[op].format(a=self.val(args[0]))
            dep = self.rdy(args[0])
        else:
            raise UnsupportedStage("unknown assign op %r" % op)
        rd, ry = self.reg(stmt.dst)
        latency = self.cfg.op_latency(op)
        # Evaluation happens after issue+dep, like the interpreter: even a
        # div-by-zero propagates with the slot already consumed.
        self.emit_acquire(1)
        self.emit_comp(dep, latency)
        self.w("%s = %s" % (rd, expr))
        self.w("%s = comp" % ry)
        self.emit_retire("comp")
        return False

    def emit_array_site(self, stmt):
        """Resolve a memory statement's array operand — the one place the
        static/pointer distinction is spelled — to the source expressions
        of its binding, an :data:`_ArraySite`.

        A static ``@name`` binds at compile time, as captures. A pointer
        register resolves per execution through a one-entry memo on the
        *identity* of the register value (handles move between registers,
        they are not rebuilt), so a frontier swapped once per level
        resolves once per level; a miss is the shared ``_resolve_handle``
        and so is every error message."""
        operand = stmt.array
        if type(operand) is str and operand.startswith("@"):
            tag = operand[1:]
            binding = self.env.arrays.get(tag)
            if binding is None:
                # Unbound symbol: fall back so the error surfaces at execution
                # time with the reference engine's message, not at bind time.
                raise UnsupportedStage("unbound array %s" % operand)
            return _ArraySite(
                self.cap("d_" + tag, binding.data),
                self.cap("b_" + tag, binding.base),
                self.cap("z_" + tag, binding.elem_size),
                self.cap("s_" + tag, binding.name),
            )
        self.cap("arrays", self.env.arrays)
        pr = self.reg(operand)[0]
        pc = self.pcs[id(stmt)]
        self._pointer_sites.add(pc)
        self.w("if %s is not pb%d:" % (pr, pc))
        self.w("    bind%d = _rh(arrays, %r, %s)" % (pc, operand, pr))
        self.w("    pb%d = %s" % (pc, pr))
        return _ArraySite(*("bind%d.%s" % (pc, a) for a in ("data", "base", "elem_size", "name")))

    def emit_element(self, access, stmt, site):
        """``access`` (a subscript of the site's data by ``idx``) under the
        interpreter's out-of-bounds error."""
        self.w("try:")
        self.w("    %s" % access)
        self.w("except IndexError:")
        self.w(
            "    raise SimulationError('stage %%s: %s %%s[%%d] out of bounds (len %%d)'"
            " %% (SN, %r, idx, len(%s)))" % (stmt.kind, stmt.array, site.data)
        )

    def _emit_load(self, stmt):
        site = self.emit_array_site(stmt)
        rd, ry = self.reg(stmt.dst)
        self.w("idx = %s" % self.val(stmt.index))
        self.emit_acquire(1)
        # A pointer register's ready time joins the dependence, like the
        # interpreter's array-operand ready lookup (a static array has none).
        self.emit_start(self.dep2(stmt.index, stmt.array))
        self.emit_l1_access(site)
        self.w("comp = start + latency")
        self.emit_element("%s = %s[idx]" % (rd, site.data), stmt, site)
        self.w("%s = comp" % ry)
        self.w("ld += 1")
        self.emit_mshr("comp")
        self.emit_retire("comp")
        return False

    def _emit_store(self, stmt):
        site = self.emit_array_site(stmt)
        self.w("idx = %s" % self.val(stmt.index))
        self.w("v = %s" % self.val(stmt.value))
        self.emit_acquire(1)
        self.emit_start(self.dep2(stmt.index, stmt.value))
        self.emit_l1_access(site, store=True)
        self.emit_element("%s[idx] = v" % site.data, stmt, site)
        self.emit_retire("start + 1")
        return False

    def _emit_prefetch(self, stmt):
        site = self.emit_array_site(stmt)
        self.w("idx = %s" % self.val(stmt.index))
        self.emit_acquire(1)
        self.emit_start(self.rdy(stmt.index))
        self.w("if 0 <= idx < len(%s):" % site.data)
        self.push()
        self.emit_l1_access(site)
        self.w("comp = start + latency")
        self.w("ld += 1")
        self.emit_mshr("comp")
        self.emit_retire("comp")
        self.pop()
        return False

    def _emit_if(self, stmt):
        pc = self.pcs[id(stmt)]
        self.w("v = %s" % self.val(stmt.cond))
        self.w("taken = True if v else False")
        self.emit_acquire(1)
        self.emit_predict(pc)
        self.emit_redirect(self.rdy(stmt.cond))
        then_body = [s for s in stmt.then_body if s.kind != "comment"]
        else_body = [s for s in (stmt.else_body or []) if s.kind != "comment"]
        can_signal = False
        if then_body and else_body:
            self.w("if taken:")
            self.push()
            can_signal |= self.emit_body(stmt.then_body)
            self.pop()
            self.w("else:")
            self.push()
            can_signal |= self.emit_body(stmt.else_body)
            self.pop()
        elif then_body:
            self.w("if taken:")
            self.push()
            can_signal |= self.emit_body(stmt.then_body)
            self.pop()
        elif else_body:
            self.w("if not taken:")
            self.push()
            can_signal |= self.emit_body(stmt.else_body)
            self.pop()
        return can_signal

    def _emit_for(self, stmt):
        pc = self.pcs[id(stmt)]
        i = self.fresh("i")
        hi = self.fresh("hi")
        step = self.fresh("stp")
        bd = self.fresh("bd")
        rv, ry = self.reg(stmt.var)
        self.w("%s = %s" % (i, self.val(stmt.lo)))
        self.w("%s = %s" % (hi, self.val(stmt.hi)))
        self.w("%s = %s" % (step, self.val(stmt.step)))
        self.w("%s = %s" % (bd, self.dep2(stmt.lo, stmt.hi)))
        inc = "%s += %s" % (i, step)
        self.w("while True:")
        self.push()
        self.w("taken = %s < %s" % (i, hi))
        # Loop control costs real instructions (interp.exec_for): inc,
        # compare, branch — issue(3) then the gshare predict.
        self.emit_acquire(3)
        self.emit_predict(pc)
        self.emit_redirect(bd)
        self.w("if not taken:")
        self.w("    break")
        self.w("%s = %s" % (rv, i))
        self.w("%s = cur" % ry)
        self._loop_stack.append(("for", inc))
        body_signals = self.emit_body(stmt.body)
        self._loop_stack.pop()
        self.w(inc)
        self.pop()
        if body_signals:
            self.w("if _sig:")
            self.w("    _sig -= 1")
            return True
        return False

    def _emit_loop(self, stmt):
        self.w("while True:")
        self.push()
        self._loop_stack.append(("loop", None))
        body_signals = self.emit_body(stmt.body)
        self._loop_stack.pop()
        self.pop()
        if not body_signals:
            raise UnsupportedStage("loop with no reachable break")
        self.w("if _sig:")
        self.w("    _sig -= 1")
        return True

    def _emit_break(self, stmt):
        self.w("_sig = %d" % stmt.levels)
        return True

    def _emit_continue(self, stmt):
        self.w("_sig = -1")
        return True

    # -- queue statements ---------------------------------------------------

    def _emit_do_enq(self, q, value_expr, dep_expr, extra=None, inline=False):
        """StageInterp.do_enq on the queue held by local ``q``: one of the
        stage's own queues, bound at compile time (``inline``: HWQueue.try_enq
        on its prologue locals, counters as deltas), or one resolved at run
        time (the method), ``extra`` naming its added latency."""
        args = "ev, %s" % extra if extra else "ev"
        self.w("ev = %s" % value_expr)
        self.emit_acquire(1)
        self.emit_start(dep_expr)
        if inline:
            self._enq_qids.add(int(q[1:]))
            self.w("if %s_free:" % q)
            self.push()
            self.w("freed = %s_free.popleft()" % q)
            self.w("qt = freed if freed > start else start")
            self.w("%s_entries.append((ev, qt + %s_lat))" % (q, q))
            self.w("%s_enqs += 1" % q)
            self.w("occ = len(%s_entries)" % q)
            self.w("if occ > %s_mo:" % q)
            self.w("    %s_mo = occ" % q)
            self.emit_queue_counter(q, "qt")
            self.emit_wake(q, "waiting_consumers")
            self.pop()
            self.w("else:")
            self.w("    %s.full_blocks += 1" % q)
            self.w("    qt = None")
        else:
            self.w("qt = %s.try_enq(start, %s)" % (q, args))
        self.w("if qt is None:")
        self.push()
        self.emit_wait(
            "('enq', %s.qid)" % q,
            "%s.try_enq(start if start > cur else cur, %s)" % (q, args),
            "qt",
            "queue",
            "%s.waiting_producers" % q,
        )
        self.pop()
        # The slot existed only in the future: effectively full now.
        self.emit_advance("qt", "queue", "elif qt > start")
        self.emit_retire("(qt if qt > start else start) + 1")

    def _emit_enq(self, stmt):
        q = self.queue_locals(stmt.queue)
        self._emit_do_enq(q, self.val(stmt.value), self.rdy(stmt.value), inline=True)
        return False

    def _emit_enq_ctrl(self, stmt):
        ctrl = self.cap("ctrl%d" % self.pcs[id(stmt)], stmt.ctrl)
        self._emit_do_enq(self.queue_locals(stmt.queue), ctrl, "0.0", inline=True)
        return False

    def _emit_take(self, q, qid, peek=False):
        """One dequeue (StageInterp._deq_value) or peek (exec_peek) attempt
        incl. the blocked path; leaves ``dv``/``qt``."""
        kind = "peek" if peek else "deq"
        self.emit_acquire(1)
        self.w("if %s_entries:" % q)
        self.push()
        self.w("dv, avail = %s_entries%s" % (q, "[0]" if peek else ".popleft()"))
        self.w("qt = avail if avail > t else t")
        if not peek:
            self._deq_qids.add(qid)
            self.w("%s_free.append(qt)" % q)
            self.w("%s_deqs += 1" % q)
            self.emit_queue_counter(q, "qt")
            self.emit_wake(q, "waiting_producers")
        self.pop()
        self.w("else:")
        self.push()
        if not peek:
            self.w("%s.empty_blocks += 1" % q)
        self.emit_wait(
            "(%r, %d)" % (kind, qid),
            "%s.try_%s(cur)" % (q, kind),
            "dv, qt",
            "queue",
            "%s.waiting_consumers" % q,
        )
        self.pop()
        self.emit_retire("qt + 1")

    def _emit_deq(self, stmt):
        qid = stmt.queue
        base = self.queue_locals(qid)
        rd, ry = self.reg(stmt.dst)
        handler = self.stage.handlers.get(qid)
        if handler is None:
            self._emit_take(base, qid)
            self.w("%s = dv" % rd)
            self.w("%s = qt" % ry)
            return False
        if qid in self._handler_stack:
            raise UnsupportedStage("recursive control handler on queue %d" % qid)
        cr, cy = self.reg("%ctrl")
        self.w("while True:")
        self.push()
        self._emit_take(base, qid)
        self.w("if type(dv) is Ctrl:")
        self.push()
        self.w("%s = dv" % cr)
        self.w("%s = qt" % cy)
        self._handler_stack.append(qid)
        self._loop_stack.append(("syn", None))
        handler_signals = self.emit_body(handler)
        self._loop_stack.pop()
        self._handler_stack.pop()
        self.w("continue")  # handler fell through: retry the dequeue
        self.pop()
        self.w("%s = dv" % rd)
        self.w("%s = qt" % ry)
        self.w("break")
        self.pop()
        return handler_signals

    def _emit_peek(self, stmt):
        rd, ry = self.reg(stmt.dst)
        self._emit_take(self.queue_locals(stmt.queue), stmt.queue, peek=True)
        self.w("%s = dv" % rd)
        self.w("%s = qt" % ry)
        return False

    def _emit_is_control(self, stmt):
        rd, ry = self.reg(stmt.dst)
        self.w("v = %s" % self.val(stmt.src))
        self.emit_acquire(1)
        self.emit_comp(self.rdy(stmt.src))
        self.w("%s = 1 if type(v) is Ctrl else 0" % rd)
        self.w("%s = comp" % ry)
        self.emit_retire("comp")
        return False

    def _emit_call(self, stmt):
        self.cap("intrinsics", self.env.intrinsics)
        vals = ", ".join(self.val(a) for a in stmt.args)
        regs = [a for a in stmt.args if _is_reg(a)]
        self.w("fn = intrinsics.get(%r)" % stmt.func)
        self.w("if fn is None:")
        self.w("    raise SimulationError('unbound intrinsic %%r' %% (%r,))" % stmt.func)
        self.w("k = fn.cost")
        self.w("if k < 1:")
        self.w("    k = 1")
        # Intrinsic cost is a run-time property of the binding.
        self.emit_acquire("k")
        if not regs:
            dep = "0.0"
        elif len(regs) == 1:
            dep = self.rdy(regs[0])
        else:
            dep = "max(%s)" % ", ".join(self.rdy(a) for a in regs)
        self.emit_comp(dep)
        self.w("res = fn.fn(%s)" % vals)
        if stmt.dst is not None:
            rd, ry = self.reg(stmt.dst)
            self.w("%s = res if res is not None else 0" % rd)
            self.w("%s = comp" % ry)
        self.emit_retire("comp")
        return False

    def _emit_barrier(self, stmt):
        self.cap("barrier_of", _barrier_of)
        self.w("bobj = barrier_of(env)")
        self.w("rel = bobj.arrive(task, cur)")
        self.w("if rel is None:")
        self.push()
        # ``arrive`` registered the task; the last arriver wakes it.
        self.emit_wait("('barrier', %r)" % stmt.tag, "bobj.last_release", "rel", "barrier")
        self.pop()
        self.emit_advance("rel", "barrier", "elif rel > cur")
        return False

    def _emit_read_shared(self, stmt):
        self.cap("shared", self.env.shared)
        rd, ry = self.reg(stmt.dst)
        self.emit_acquire(1)
        self.w("%s = shared.read(%r)" % (rd, stmt.var))
        self.w("%s = t + 1" % ry)
        self.emit_retire("t + 1")
        return False

    def _emit_write_shared(self, stmt):
        self.cap("shared", self.env.shared)
        self.w("v = %s" % self.val(stmt.value))
        self.emit_acquire(1)
        self.w("shared.write(%r, v)" % stmt.var)
        self.emit_comp(self.rdy(stmt.value))
        self.emit_retire("comp")
        return False

    def _emit_atomic_rmw(self, stmt):
        if stmt.op not in _BINARY_EXPR:
            raise UnsupportedStage("unknown atomic op %r" % stmt.op)
        site = self.emit_array_site(stmt)
        data = site.data
        self.w("idx = %s" % self.val(stmt.index))
        self.w("v = %s" % self.val(stmt.value))
        self.emit_acquire(3)
        self.emit_start(self.dep2(stmt.index, stmt.value))
        self.emit_l1_access(site)
        self.w("comp = start + latency + env.atomic_overhead")
        self.w("old = %s[idx]" % data)
        self.w("%s[idx] = %s" % (data, _BINARY_EXPR[stmt.op].format(a="old", b="v")))
        if stmt.dst is not None:
            rd, ry = self.reg(stmt.dst)
            self.w("%s = old" % rd)
            self.w("%s = comp" % ry)
        self.w("ld += 1")
        self.emit_mshr("comp")
        self.emit_retire("comp")
        return False

    def _emit_enq_dist(self, stmt):
        self.cap("remote_queue", self.env.remote_queue)
        self.cap("self_interp", None)  # patched post-construction
        self.w("rq, rx = remote_queue(self_interp, %d, %s)" % (stmt.queue, self.val(stmt.replica)))
        self._emit_do_enq("rq", self.val(stmt.value), self.rdy(stmt.value), "rx")
        return False

    def _emit_enq_ctrl_dist(self, stmt):
        self.cap("all_replica_queues", self.env.all_replica_queues)
        self.cap("self_interp", None)  # patched post-construction
        ctrl = self.cap("ctrl%d" % self.pcs[id(stmt)], stmt.ctrl)
        self.w("for rq, rx in all_replica_queues(self_interp, %d):" % stmt.queue)
        self.push()
        self._emit_do_enq("rq", ctrl, "0.0", "rx")
        self.pop()
        return False

    # -- whole-stage assembly ----------------------------------------------

    def compile(self):
        """Emit the full generator-function source; returns (source, captures)."""
        # Body first (at indent 2, inside the top-level synthetic loop):
        # emission discovers registers, queues, and captures as it goes.
        self._loop_stack.append(("syn", None))
        self.emit_body(self.stage.body)
        self._loop_stack.pop()
        # Expand sync markers now that the full queue set is known.
        sync = self.sync_lines()
        body_lines = []
        for line in self.lines:
            text = line.lstrip()
            if text == "#SYNC#":
                pad = line[: len(line) - len(text)]
                body_lines.extend(pad + s for s in sync)
            else:
                body_lines.append(line)
        self.cap("self_interp", None)  # patched with the interp object per run
        self.captures["K"] = tuple(self._immediates)

        head = ["def __batch_stage(C):"]

        def p(text):
            head.append("    " + text)

        for name in sorted(self.captures):
            p("%s = C[%r]" % (name, name))
        if self._immediates:
            p("%s, = K" % ", ".join("K%d" % i for i in range(len(self._immediates))))
        p("regs = ctx.regs")
        p("ready = ctx.ready")
        p("ptable = pred.table")
        p("pmask = pred.mask")
        p("hmask = pred.history_mask")
        # Hot structures bound once (the ledger's window only ever changes
        # in place). The ROB and MSHR live as prefilled rings (see emit_retire);
        # ThreadCtx always hands the engine freshly-empty deques, so the
        # rings start at zero.
        p("slots = ledger.slots")
        p("grow = ledger.grow")
        for line in self.resync_lines():
            p(line)
        p("l1h = 0")
        p("l1get = l1_sets.get")
        p("pfget = pf_streams.get")
        p("ring = deque([0.0] * %d, %d)" % (self.ROB, self.ROB))
        p("rpush = ring.append")
        p("mring = deque([0.0] * %d, %d)" % (self.MSHRS, self.MSHRS))
        p("mpush = mring.append")
        for line in self.queue_prologue_lines():
            p(line)
        p("cur = ctx.cursor")
        p("lc, ln, t = resync(cur, -1, 0)")
        p("rlast = ctx.rob_last")
        p("ph = pred.history")
        for field in MIRROR_COUNTERS + MIRROR_STALLS:
            p("%s = tstats.%s" % (_STAT_LOCALS[field], field))
        p("_sig = 0")
        p("tstats.start_cycle = cur")
        # Registers live as frame locals; scalar parameters were bound into
        # ctx.regs before engine construction, everything else starts unset.
        for name in sorted(self.regmap):
            rd, ry = self.regmap[name]
            p("%s = regs.get(%r)" % (rd, name))
            p("%s = ready.get(%r, 0.0)" % (ry, name))
        # Pointer-site memos start on a key no register can hold.
        for pc in sorted(self._pointer_sites):
            p("pb%d = C" % pc)
        # Makes this a generator even for never-blocking stages.
        p("if False:")
        p("    yield BLOCKED")
        # The top-level body runs inside a transparent one-shot loop so a
        # (dangling) signal can skip the remaining statements, exactly like
        # exec_body returning early.
        p("while True:")

        tail = []

        def q(text):
            tail.append("    " + text)

        q("    break")
        q("if _sig:")
        q("    raise _dangle(SN, _sig)")
        # Normal completion: flush mirrors, write registers back, finish.
        for line in sync:
            q(line)
        for name in sorted(self.regmap):
            rd, ry = self.regmap[name]
            q("regs[%r] = %s" % (name, rd))
            q("ready[%r] = %s" % (name, ry))
        q("tstats.end_cycle = cur")
        q("env.on_thread_done(self_interp)")

        source = "\n".join(head + body_lines + tail) + "\n"
        return source, self.captures


def _barrier_of(env):
    return env.barrier


class _CompiledStage:
    """One compiled stage thread; public surface mirrors StageInterp."""

    ENGINE = "batch"

    def __init__(self, stage, ctx, runenv, source, captures):
        self.stage = stage
        self.ctx = ctx
        self.env = runenv
        self.handlers = stage.handlers
        captures["self_interp"] = self
        self._captures = captures
        self._fn = stage_function(source)

    @property
    def source(self):
        """The generated source, regenerated on demand (introspection and
        debugging only): keeping ~50 KB of text per stage per run alive was
        most of this engine's retained memory."""
        return _StageCompiler(self.stage, self.ctx, self.env).compile()[0]

    def run(self):
        # The captures dict points back at this object; handing it to the
        # generator (whose frame dies with the run) instead of keeping it
        # leaves no reference cycle behind a finished simulation.
        captures, self._captures = self._captures, None
        return self._fn(captures)


def BatchStageInterp(stage, ctx, runenv):
    """Factory: the batch-compiled stage thread, or the reference
    interpreter when the stage's shape is outside the compiler. A fallback
    is never silent: the returned interpreter carries the reason as
    ``fallback_reason``, which the machine publishes per stage."""
    try:
        source, captures = _StageCompiler(stage, ctx, runenv).compile()
    except UnsupportedStage as exc:
        interp = StageInterp(stage, ctx, runenv)
        interp.fallback_reason = str(exc)
        return interp
    return _CompiledStage(stage, ctx, runenv, source, captures)
