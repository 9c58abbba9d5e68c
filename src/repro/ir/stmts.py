"""Statement nodes of the Phloem IR.

The IR is a *region tree*: a stage body is a list of statements, and the
control-flow statements (``For``, ``Loop``, ``If``) own nested statement
lists. Phloem's passes manipulate this tree directly — decoupling slices it,
the queue passes splice ``Enq``/``Deq`` nodes into it, and the control-value
passes restructure its loops.

A statement kind is declared once, in its class: ``__slots__`` (its fields,
in canonical order), ``READS``, ``WRITES`` and ``BODIES``. Everything a pass
sees of a statement — ``uses()`` (registers read), ``defs()`` (registers
written), sub-``blocks()`` and ``clone()`` — is read off that declaration,
and so are the canonical serializer (:mod:`repro.ir.serialize`) and
use-substitution (:func:`substitute_uses`).

The queries every pass and analyzer runs over the tree live here once, after
the statement kinds: walks (:func:`walk`, :func:`walk_with_depth`,
:func:`walk_phase_level`), preorder :func:`positions`, the list holding a
statement (:func:`find_container`), its enclosing loops
(:func:`loop_chain`), and the in-place rewrites :func:`remove` and
:func:`substitute_uses`.
"""

from . import ops


class Stmt:
    """Base class for all IR statements.

    A kind declares ``__slots__`` and, where they are not empty, ``READS``
    (the operand fields it reads; a list field such as ``args`` contributes
    each register in it), ``WRITES`` (the one field naming the register it
    defines) and ``BODIES`` (its fields holding nested statement lists).
    ``blocks()`` is overridden by the three compound kinds rather than read
    off ``BODIES``: ``walk`` calls it on every statement.

    ``span`` (a :class:`repro.diag.Span`, default None) is the source
    position the statement was lowered from. The frontend stamps it via
    :class:`~repro.ir.builder.IRBuilder`; compiler-synthesized statements
    have none. ``clone()`` keeps it, so diagnostics on decoupled pipelines
    still point at the original mini-C line.
    """

    kind = "stmt"
    span = None  # class-level default; instances carry their own when known
    READS = ()
    WRITES = None
    BODIES = ()

    def uses(self):
        """Registers this statement reads (array symbols ``@a`` are not)."""
        # values.is_reg, inlined: every dataflow pass calls this per statement.
        regs = ()
        for name in self.READS:
            value = getattr(self, name)
            if type(value) is list:
                for v in value:
                    if type(v) is str and v[:1] != "@":
                        regs += (v,)
            elif type(value) is str and value[:1] != "@":
                regs += (value,)
        return regs

    def defs(self):
        """Registers this statement writes."""
        name = self.WRITES
        if name is None:
            return ()
        reg = getattr(self, name)
        return () if reg is None else (reg,)

    def blocks(self):
        """Nested statement lists owned by this statement."""
        return ()

    def clone(self):
        """A deep copy: nested bodies cloned, list operands copied, span kept."""
        cls = type(self)
        new = cls.__new__(cls)
        for name in cls.__slots__:
            value = getattr(self, name)
            if type(value) is list:
                value = [s.clone() for s in value] if name in cls.BODIES else value[:]
            setattr(new, name, value)
        span = self.span
        if span is not None:
            new.span = span
        return new

    def __repr__(self):
        from .printer import format_stmt

        return format_stmt(self)


class Assign(Stmt):
    """``dst = op(args...)`` — one fine-grain scalar operation."""

    kind = "assign"
    __slots__ = ("dst", "op", "args")
    READS = ("args",)
    WRITES = "dst"

    def __init__(self, dst, op, args):
        if op not in ops.ALL_OPS:
            raise ValueError("unknown op %r" % (op,))
        if len(args) != ops.arity(op):
            raise ValueError("op %r expects %d args, got %d" % (op, ops.arity(op), len(args)))
        self.dst = dst
        self.op = op
        self.args = list(args)


class Load(Stmt):
    """``dst = array[index]`` — the unit of irregularity the paper decouples at."""

    kind = "load"
    __slots__ = ("dst", "array", "index")
    READS = ("array", "index")
    WRITES = "dst"

    def __init__(self, dst, array, index):
        self.dst = dst
        self.array = array
        self.index = index


class Store(Stmt):
    """``array[index] = value``."""

    kind = "store"
    __slots__ = ("array", "index", "value")
    READS = ("array", "index", "value")

    def __init__(self, array, index, value):
        self.array = array
        self.index = index
        self.value = value


class Prefetch(Stmt):
    """Issue a load for timing only; the value is discarded.

    Emitted by the decoupler when the aliasing rule forbids forwarding a
    loaded value across stages (paper Sec. IV-A: "Phloem may still
    *prefetch* data in this case").
    """

    kind = "prefetch"
    __slots__ = ("array", "index")
    READS = ("array", "index")

    def __init__(self, array, index):
        self.array = array
        self.index = index


class Enq(Stmt):
    """``enq(queue, value)`` — blocking enqueue of a data value."""

    kind = "enq"
    __slots__ = ("queue", "value")
    READS = ("value",)

    def __init__(self, queue, value):
        self.queue = queue
        self.value = value


class EnqCtrl(Stmt):
    """``enq_ctrl(queue, cv)`` — enqueue an in-band control value."""

    kind = "enq_ctrl"
    __slots__ = ("queue", "ctrl")

    def __init__(self, queue, ctrl):
        self.queue = queue
        self.ctrl = ctrl  # a values.Ctrl


class Deq(Stmt):
    """``dst = deq(queue)`` — blocking dequeue."""

    kind = "deq"
    __slots__ = ("dst", "queue")
    WRITES = "dst"

    def __init__(self, dst, queue):
        self.dst = dst
        self.queue = queue


class Peek(Stmt):
    """``dst = peek(queue)`` — read the head without consuming it."""

    kind = "peek"
    __slots__ = ("dst", "queue")
    WRITES = "dst"

    def __init__(self, dst, queue):
        self.dst = dst
        self.queue = queue


class IsControl(Stmt):
    """``dst = is_control(src)`` — test whether a dequeued value is a control value."""

    kind = "is_control"
    __slots__ = ("dst", "src")
    READS = ("src",)
    WRITES = "dst"

    def __init__(self, dst, src):
        self.dst = dst
        self.src = src


class For(Stmt):
    """Counted loop: ``for (var = lo; var < hi; var += step) body``."""

    kind = "for"
    __slots__ = ("var", "lo", "hi", "step", "body")
    READS = ("lo", "hi", "step")
    WRITES = "var"
    BODIES = ("body",)

    def __init__(self, var, lo, hi, step, body):
        self.var = var
        self.lo = lo
        self.hi = hi
        self.step = step
        self.body = body

    def blocks(self):
        return (self.body,)


class Loop(Stmt):
    """Unbounded loop (``while (true)``); exits only via ``Break``.

    Pass 4 (use control values) rewrites counted consumer loops into this
    form, exactly as the paper describes ("any loop that uses a control
    value becomes a while (true) {...} statement").
    """

    kind = "loop"
    __slots__ = ("body",)
    BODIES = ("body",)

    def __init__(self, body):
        self.body = body

    def blocks(self):
        return (self.body,)


class If(Stmt):
    """Two-armed conditional on a register/constant condition."""

    kind = "if"
    __slots__ = ("cond", "then_body", "else_body")
    READS = ("cond",)
    BODIES = ("then_body", "else_body")

    def __init__(self, cond, then_body, else_body=None):
        self.cond = cond
        self.then_body = then_body
        self.else_body = else_body if else_body is not None else []

    def blocks(self):
        return (self.then_body, self.else_body)


class Break(Stmt):
    """Break out of ``levels`` enclosing loops (default 1)."""

    kind = "break"
    __slots__ = ("levels",)

    def __init__(self, levels=1):
        self.levels = levels


class Continue(Stmt):
    """Continue the innermost enclosing loop."""

    kind = "continue"
    __slots__ = ()


class Barrier(Stmt):
    """Synchronize all stages of a pipeline (paper Sec. IV-A, program phases)."""

    kind = "barrier"
    __slots__ = ("tag",)

    def __init__(self, tag="phase"):
        self.tag = tag


class ReadShared(Stmt):
    """``dst = shared[var]`` — read a cross-stage scalar cell.

    Shared cells carry phase-level scalars (e.g. the next fringe size in
    BFS). They are only coherent across a ``Barrier``; the verifier enforces
    that the writer and readers are separated by one.
    """

    kind = "read_shared"
    __slots__ = ("dst", "var")
    WRITES = "dst"

    def __init__(self, dst, var):
        self.dst = dst
        self.var = var


class WriteShared(Stmt):
    """``shared[var] = value`` — write a cross-stage scalar cell."""

    kind = "write_shared"
    __slots__ = ("var", "value")
    READS = ("value",)

    def __init__(self, var, value):
        self.var = var
        self.value = value


class Call(Stmt):
    """``dst = func(args...)`` — call an opaque intrinsic.

    Phloem does not decouple inside calls (paper Sec. IV-A); intrinsics carry
    a cost (in issue slots) used by the timing model, and a Python callable
    giving their functional semantics.
    """

    kind = "call"
    __slots__ = ("dst", "func", "args")
    READS = ("args",)
    WRITES = "dst"

    def __init__(self, dst, func, args):
        self.dst = dst
        self.func = func
        self.args = list(args)


class AtomicRMW(Stmt):
    """``dst = atomic_op(array[index], value)`` returning the *old* value.

    Used by the hand-written data-parallel baselines (Ligra/PBFS-style
    ports) for fetch-and-add / fetch-and-min on shared arrays. Not emitted
    by the Phloem compiler — decoupled pipelines need no atomics, which is
    part of the paper's point.
    """

    kind = "atomic_rmw"
    __slots__ = ("dst", "op", "array", "index", "value")
    READS = ("array", "index", "value")
    WRITES = "dst"

    def __init__(self, dst, op, array, index, value):
        if op not in ("add", "min", "max", "or", "and"):
            raise ValueError("unsupported atomic op %r" % (op,))
        self.dst = dst
        self.op = op
        self.array = array
        self.index = index
        self.value = value


class EnqDist(Stmt):
    """``enq`` into queue ``queue`` of the replica selected by ``replica``.

    The distribution primitive of replicated pipelines (paper Sec. IV-C):
    a stage may enqueue work to the corresponding stage of *any* replica.
    ``replica`` is an operand evaluated at runtime (e.g. bits of a vertex
    id, per the paper's BFS example).
    """

    kind = "enq_dist"
    __slots__ = ("queue", "value", "replica")
    READS = ("value", "replica")

    def __init__(self, queue, value, replica):
        self.queue = queue
        self.value = value
        self.replica = replica


class EnqCtrlDist(Stmt):
    """Broadcast a control value to queue ``queue`` of *all* replicas."""

    kind = "enq_ctrl_dist"
    __slots__ = ("queue", "ctrl")

    def __init__(self, queue, ctrl):
        self.queue = queue
        self.ctrl = ctrl


class Comment(Stmt):
    """No-op annotation preserved by passes; helps debugging emitted code."""

    kind = "comment"
    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


def walk(body):
    """Yield every statement in ``body``, pre-order, recursively.

    One generator with a stack of list iterators: a statement is handed out
    once, not passed up through a generator per enclosing block.
    """
    stack = [iter(body)]
    while stack:
        for stmt in stack[-1]:
            yield stmt
            blocks = stmt.blocks()
            if blocks:
                stack.extend(map(iter, reversed(blocks)))
                break
        else:
            stack.pop()


def walk_with_depth(body, depth=0):
    """Yield ``(stmt, loop_depth)`` pairs; depth counts enclosing loops."""
    for stmt in body:
        yield stmt, depth
        extra = 1 if stmt.kind in ("for", "loop") else 0
        for block in stmt.blocks():
            for pair in walk_with_depth(block, depth + extra):
                yield pair


def walk_phase_level(body):
    """Yield the statements of ``body`` and of the Ifs in it, pre-order,
    without entering loops (a loop itself is yielded)."""
    for stmt in body:
        yield stmt
        if stmt.kind == "if":
            for block in stmt.blocks():
                for inner in walk_phase_level(block):
                    yield inner


def positions(body):
    """``{id(stmt): pre-order index}`` over the whole tree."""
    return {id(stmt): pos for pos, stmt in enumerate(walk(body))}


def count_stmts(body):
    """Total number of statements in the region tree."""
    return sum(1 for _ in walk(body))


def find_container(body, target):
    """The statement list directly holding ``target`` (by identity), or None."""
    for stmt in body:
        if stmt is target:
            return body
    for stmt in body:
        for block in stmt.blocks():
            found = find_container(block, target)
            if found is not None:
                return found
    return None


def loop_chain(body, target, chain=()):
    """Loop statements enclosing ``target``, outermost first, or None."""
    for stmt in body:
        if stmt is target:
            return chain
        for block in stmt.blocks():
            ext = chain + (stmt,) if stmt.kind in ("for", "loop") else chain
            found = loop_chain(block, target, ext)
            if found is not None:
                return found
    return None


def remove(body, victims):
    """Delete every statement in ``victims`` (by identity) from the tree, in place."""
    ids = {id(stmt) for stmt in victims}

    def sweep(block):
        kept = []
        for stmt in block:
            if id(stmt) in ids:
                continue
            for inner in stmt.blocks():
                sweep(inner)
            kept.append(stmt)
        block[:] = kept

    sweep(body)


def substitute_uses(body, mapping):
    """Replace register *uses* per ``mapping`` throughout ``body`` (in place).

    Definitions are left untouched, so renaming a value's consumers away
    from a multiply-defined register is safe.
    """
    for stmt in body:
        for field in stmt.READS:
            value = getattr(stmt, field)
            if type(value) is list:
                setattr(stmt, field, [mapping.get(a, a) if type(a) is str else a for a in value])
            elif type(value) is str and value in mapping:
                setattr(stmt, field, mapping[value])
        for block in stmt.blocks():
            substitute_uses(block, mapping)
