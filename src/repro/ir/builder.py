"""Convenience builder for constructing Phloem IR by hand.

Used by the frontend's lowering, by the compiler passes when they synthesize
new code, and by the hand-built benchmark programs — the "manually
pipelined" variants (the paper's `Manual` bars), the data-parallel
baselines and the replicated Fig. 14 pipelines — which are built directly
at this level just as the paper's were written directly against the Pipette
API. What those programs share (phase loops and barriers, the fringe swap,
the CSR neighbour chain, the data-parallel sizes exchange and assembly) is
written once in :mod:`repro.workloads.protocol`.

Example::

    b = IRBuilder()
    with b.for_("i", 0, "n"):
        v = b.load("@A", "i")
        with b.if_(b.binop("gt", v, 0)):
            w = b.load("@B", v)
            b.call(None, "work", [w])
    body = b.finish()
"""

from contextlib import contextmanager

from . import stmts
from .values import Ctrl


class IRBuilder:
    """Builds a statement list with nested control flow via context managers."""

    def __init__(self, temp_prefix="t"):
        self._stack = [[]]
        self._temp_prefix = temp_prefix
        self._next_temp = 0
        self.span = None  # current source span; stamped onto emitted stmts

    # -- plumbing ---------------------------------------------------------

    def fresh(self, hint=None):
        """Return a fresh temporary register name."""
        name = "%s%d" % (hint or self._temp_prefix, self._next_temp)
        self._next_temp += 1
        return name

    def at(self, span):
        """Set the source span stamped onto subsequently emitted statements.

        The frontend's lowering sets this per source statement; ``None``
        (the default) leaves statements span-free, which is what compiler
        passes synthesizing new code want.
        """
        self.span = span
        return span

    def emit(self, stmt):
        """Append a statement to the current block and return it."""
        if self.span is not None and stmt.span is None:
            stmt.span = self.span
        self._stack[-1].append(stmt)
        return stmt

    def finish(self):
        """Return the completed top-level body."""
        if len(self._stack) != 1:
            raise RuntimeError("unclosed block in IRBuilder")
        return self._stack[0]

    # -- straight-line statements -----------------------------------------

    def assign(self, op, args, dst=None):
        dst = dst or self.fresh()
        self.emit(stmts.Assign(dst, op, args))
        return dst

    def binop(self, op, a, b, dst=None):
        return self.assign(op, [a, b], dst)

    def mov(self, src, dst=None):
        return self.assign("mov", [src], dst)

    def const(self, value, dst=None):
        """Materialize a constant into a register (a ``mov`` from a literal)."""
        return self.assign("mov", [value], dst)

    def load(self, array, index, dst=None):
        dst = dst or self.fresh()
        self.emit(stmts.Load(dst, array, index))
        return dst

    def store(self, array, index, value):
        self.emit(stmts.Store(array, index, value))

    def prefetch(self, array, index):
        self.emit(stmts.Prefetch(array, index))

    def enq(self, queue, value):
        self.emit(stmts.Enq(queue, value))

    def enq_ctrl(self, queue, ctrl):
        if isinstance(ctrl, str):
            ctrl = Ctrl(ctrl)
        self.emit(stmts.EnqCtrl(queue, ctrl))

    def deq(self, queue, dst=None):
        dst = dst or self.fresh()
        self.emit(stmts.Deq(dst, queue))
        return dst

    def peek(self, queue, dst=None):
        dst = dst or self.fresh()
        self.emit(stmts.Peek(dst, queue))
        return dst

    def is_control(self, src, dst=None):
        dst = dst or self.fresh()
        self.emit(stmts.IsControl(dst, src))
        return dst

    def call(self, dst, func, args):
        self.emit(stmts.Call(dst, func, args))
        return dst

    def atomic_rmw(self, op, array, index, value, dst=None):
        dst = dst or self.fresh()
        self.emit(stmts.AtomicRMW(dst, op, array, index, value))
        return dst

    def atomic_add(self, array, index, value, dst=None):
        return self.atomic_rmw("add", array, index, value, dst)

    def atomic_min(self, array, index, value, dst=None):
        return self.atomic_rmw("min", array, index, value, dst)

    def atomic_or(self, array, index, value, dst=None):
        return self.atomic_rmw("or", array, index, value, dst)

    def enq_dist(self, queue, value, replica):
        self.emit(stmts.EnqDist(queue, value, replica))

    def enq_ctrl_dist(self, queue, ctrl):
        if isinstance(ctrl, str):
            ctrl = Ctrl(ctrl)
        self.emit(stmts.EnqCtrlDist(queue, ctrl))

    def barrier(self, tag="phase"):
        self.emit(stmts.Barrier(tag))

    def read_shared(self, var, dst=None):
        dst = dst or self.fresh()
        self.emit(stmts.ReadShared(dst, var))
        return dst

    def write_shared(self, var, value):
        self.emit(stmts.WriteShared(var, value))

    def break_(self, levels=1):
        self.emit(stmts.Break(levels))

    def continue_(self):
        self.emit(stmts.Continue())

    def comment(self, text):
        self.emit(stmts.Comment(text))

    # -- control flow -----------------------------------------------------

    @contextmanager
    def for_(self, var, lo, hi, step=1):
        """Build a counted loop; yields the induction variable name."""
        body = []
        self._stack.append(body)
        try:
            yield var
        finally:
            self._stack.pop()
        self.emit(stmts.For(var, lo, hi, step, body))

    @contextmanager
    def loop(self):
        """Build an unbounded loop (exit with ``break_``)."""
        body = []
        self._stack.append(body)
        try:
            yield
        finally:
            self._stack.pop()
        self.emit(stmts.Loop(body))

    @contextmanager
    def if_(self, cond):
        """Build the then-arm of a conditional."""
        then_body = []
        self._stack.append(then_body)
        try:
            yield
        finally:
            self._stack.pop()
        self.emit(stmts.If(cond, then_body, []))

    @contextmanager
    def if_else(self, cond):
        """Build both arms: yields ``(then_ctx, else_ctx)`` context managers."""
        node = stmts.If(cond, [], [])

        @contextmanager
        def arm(body):
            self._stack.append(body)
            try:
                yield
            finally:
                self._stack.pop()

        yield arm(node.then_body), arm(node.else_body)
        self.emit(node)

    @contextmanager
    def block(self):
        """Collect statements into a detached list (for handlers)."""
        body = []
        self._stack.append(body)
        try:
            yield body
        finally:
            self._stack.pop()
