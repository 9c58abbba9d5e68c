"""The decoupling transform: split one stage body at a decoupling point.

Given a body and a ranked :class:`~repro.analysis.costmodel.DecouplePoint`,
produce a *producer* body (the backward slice of the point's address plus
the loop control that drives it) and a *consumer* body (everything else),
wired by queues:

* in **value mode** (read-only alias class) the producer performs the load
  and forwards the value — the shape reference accelerators can later
  offload;
* in **prefetch mode** (read-write class, the paper's Fig. 4 race) the
  producer only prefetches and forwards the *index*; the consumer re-loads.

Every other value computed on the producer side but consumed downstream is
forwarded through its own queue ("add queues", pass 1); *pure* scalars
(phase-level recomputation chains, loop counters over shared bounds) are
cloned into both sides instead, which is what keeps loop control cheap.

The transform is deliberately conservative: if a split would need values to
flow backwards (consumer -> producer) or a multiply-defined register to
cross the boundary, it raises :class:`~repro.errors.CompileError` and the
driver simply rejects that candidate point, exactly as an untransformable
candidate should be.
"""

from ..analysis.alias import access_class
from ..analysis.defs import DefUse, pure_regs
from ..analysis.slicing import backward_slice
from ..errors import AliasError, CompileError
from ..ir import stmts as S
from ..ir.values import is_reg

_CTRL_KINDS = frozenset(["for", "loop", "if"])
_EFFECT_IN_SLICE = frozenset(
    ["store", "atomic_rmw", "call", "write_shared", "enq", "enq_ctrl", "enq_dist", "enq_ctrl_dist"]
)


class ForwardedValue:
    """One value queued from producer to consumer."""

    __slots__ = ("reg", "qid", "label")

    def __init__(self, reg, qid, label):
        self.reg = reg
        self.qid = qid
        self.label = label


class SplitOutcome:
    """Result of one split: both bodies plus the queues that connect them."""

    def __init__(self, producer_body, consumer_body, group_queue, forwards):
        self.producer_body = producer_body
        self.consumer_body = consumer_body
        self.group_queue = group_queue  # qid carrying group values/indices, or None
        self.forwards = forwards  # list of ForwardedValue


class BodyFacts:
    """What every split of one body starts from: its :class:`DefUse`, the
    alias classes it writes and (on first use) its pure registers.

    A split never edits its input body, so a caller trying several points on
    one body (the decoupler retrying on the function body) builds this once
    and passes it to each :func:`split_at`.
    """

    def __init__(self, body, params):
        self.body = body
        self.params = set(params)
        self.du = DefUse(body)
        self.written = {
            access_class(stmt.array)
            for stmt in S.walk(body)
            if stmt.kind in ("store", "atomic_rmw")
        }
        self._pure = None

    def pure(self):
        if self._pure is None:
            self._pure = pure_regs(self.body, self.params, self.du)
        return self._pure


class _Splitter:
    def __init__(self, facts, point, alloc_qid):
        self.facts = facts
        self.body = facts.body
        self.point = point
        self.alloc_qid = alloc_qid
        self.params = facts.params
        self.du = facts.du
        self.pure = None  # set by classify, once the point passed the alias check
        self.group_ids = {id(load) for load in point.loads}
        self.dispo = {}
        self.keep = {"P": {}, "C": {}}
        self.forwards = {}  # reg -> ForwardedValue
        self.group_queue = None
        self._moved_deq = False

    # -- classification -------------------------------------------------------

    def classify(self):
        seeds = []
        for load in self.point.loads:
            seeds.append(load.index)
            if is_reg(load.array):
                seeds.append(load.array)
        slice_ids, slice_regs = backward_slice(self.body, seeds, self.du)
        slice_ids -= self.group_ids
        self._check_aliasing(slice_ids, slice_regs)
        self.pure = self.facts.pure()

        self.exit_chains = []  # each break/continue's enclosing ctrl statements
        self._index_exits(self.body, ())

        for stmt in S.walk(self.body):
            sid = id(stmt)
            kind = stmt.kind
            if sid in self.group_ids:
                self.dispo[sid] = "G"
            elif kind in _CTRL_KINDS:
                self.dispo[sid] = "ctrl"
            elif kind in ("break", "continue"):
                if kind == "break" and stmt.levels != 1:
                    raise CompileError("cannot split across a multi-level break")
                self.dispo[sid] = "X"  # follows its innermost enclosing loop
            elif self._cloneable(stmt):
                self.dispo[sid] = "B"
            elif sid in slice_ids:
                if kind in _EFFECT_IN_SLICE:
                    raise CompileError(
                        "address slice contains effectful statement '%s'" % (stmt,)
                    )
                self.dispo[sid] = "P"
            else:
                self.dispo[sid] = "C"

    def _cloneable(self, stmt):
        if stmt.kind in ("comment", "barrier", "read_shared"):
            return True
        if stmt.kind == "assign":
            return all(d in self.pure for d in stmt.defs())
        return False

    def _check_aliasing(self, slice_ids, slice_regs):
        """Producer loads must not touch classes the consumer writes.

        Runs before classification, from the slice alone: a classification
        that succeeds puts every store on the consumer side (a store in the
        slice is rejected) and exactly the slice's loads on the producer
        side, so these are the sets it would have produced. A point that
        fails both checks is rejected either way. The slice is every
        definition of the registers it needs, so its loads are found there.
        """
        consumer_written = self.facts.written
        producer_read = set()
        for reg in slice_regs:
            for stmt in self.du.defining_stmts(reg):
                if stmt.kind == "load" and id(stmt) in slice_ids:
                    producer_read.add(access_class(stmt.array))
        if self.point.value_mode:
            for load in self.point.loads:
                producer_read.add(access_class(load.array))
        conflicts = producer_read & consumer_written
        if conflicts:
            raise AliasError(
                "decoupling would read %s in the producer while the consumer "
                "writes it (stale-value race, paper Fig. 4)" % sorted(conflicts)
            )

    # -- keep/forward fixpoint ---------------------------------------------------

    def resolve(self):
        for _ in range(8):
            self._moved_deq = False
            self._compute_keep()
            new_regs = self._compute_forwards()
            if not self._moved_deq and new_regs == set(self.forwards):
                return
        raise CompileError("split fixpoint did not converge")

    def _index_exits(self, body, chain):
        for stmt in body:
            if stmt.kind in ("break", "continue"):
                self.exit_chains.append(chain)
            elif stmt.kind in _CTRL_KINDS:
                inner = chain + (stmt,)
                for block in stmt.blocks():
                    self._index_exits(block, inner)

    def _content(self, stmt, side):
        d = self.dispo[id(stmt)]
        if d == "X" or d == "B":
            # Breaks/continues travel with their innermost enclosing loop,
            # and pure cloneable scalars are emitted wherever they are
            # reached (dead copies are cleaned up); neither forces a
            # control structure to be kept.
            return False
        if d == "G":
            return True
        if d == "ctrl":
            return self.keep[side].get(id(stmt), False)
        if d == side:
            return True
        if d == "P" and side == "C":
            # A forwarded definition materializes a Deq on the consumer side.
            return any(reg in self.forwards for reg in stmt.defs())
        return False

    def _compute_keep(self):
        for side in ("P", "C"):
            keep = {}

            def visit(body):
                has = False
                for stmt in body:
                    if stmt.kind in _CTRL_KINDS:
                        inner = False
                        for block in stmt.blocks():
                            if visit(block):
                                inner = True
                        keep[id(stmt)] = inner
                        has = has or inner
                    else:
                        has = has or self._content(stmt, side)
                return has

            # Two passes: _content consults keep for nested ctrl statements.
            self.keep[side] = keep
            visit(self.body)
            visit(self.body)
            # A kept loop keeps its breaks/continues, which keeps their
            # guard Ifs (even when the guard has no other content).
            for chain in self.exit_chains:
                loop_at = None
                for index in range(len(chain) - 1, -1, -1):
                    if chain[index].kind in ("for", "loop"):
                        loop_at = index
                        break
                if loop_at is None or not keep.get(id(chain[loop_at])):
                    continue
                for guard in chain[loop_at + 1 :]:
                    keep[id(guard)] = True

    def _compute_forwards(self):
        used_c = set()
        used_p = set()
        for stmt in S.walk(self.body):
            d = self.dispo[id(stmt)]
            if d == "ctrl":
                if self.keep["C"].get(id(stmt)):
                    used_c.update(stmt.uses())
                if self.keep["P"].get(id(stmt)):
                    used_p.update(stmt.uses())
            elif d in ("C", "B", "X"):
                used_c.update(stmt.uses())
                if d in ("B", "X"):
                    used_p.update(stmt.uses())
            elif d == "P":
                used_p.update(stmt.uses())
            elif d == "G":
                # Addresses are producer uses; the loaded value in prefetch
                # mode is consumed where the load stays (consumer).
                used_p.update(stmt.uses())
                if not self.point.value_mode:
                    used_c.update(stmt.uses())

        group_dsts = [load.dst for load in self.point.loads]
        needed = set()
        for reg in used_c:
            if reg in self.pure or reg in self.params or reg == "%ctrl":
                continue
            defs = self.du.defining_stmts(reg)
            if not defs:
                continue  # scalar parameter
            sides = {self.dispo[id(s)] for s in defs}
            if sides <= {"P"} or (self.point.value_mode and sides <= {"G", "P"}):
                if len(defs) > 1:
                    raise CompileError(
                        "register %r crosses the boundary with %d definitions" % (reg, len(defs))
                    )
                needed.add(reg)
            elif "P" in sides or (self.point.value_mode and "G" in sides):
                raise CompileError(
                    "register %r is defined on both sides of the boundary" % (reg,)
                )

        for reg in used_p:
            if reg in self.pure or reg in self.params or reg == "%ctrl":
                continue
            defs = self.du.defining_stmts(reg)
            sides = {self.dispo[id(s)] for s in defs}
            if "C" in sides:
                # A value arriving from an upstream queue can be *relocated*:
                # the earlier stage takes over the dequeue and forwards the
                # value downstream. Anything else flowing backwards is a
                # genuine violation of forward-only control.
                if all(s.kind == "deq" for s in defs):
                    for s in defs:
                        self.dispo[id(s)] = "P"
                    self._moved_deq = True
                    continue
                raise CompileError(
                    "producer needs %r computed on the consumer side "
                    "(control must flow forward)" % (reg,)
                )
            if not self.point.value_mode and "G" in sides:
                raise CompileError(
                    "producer needs the loaded value %r of a prefetch-mode point" % (reg,)
                )

        # Allocate queues: group values share one queue (they are adjacent
        # accesses streamed in order — the shape a single RA serves).
        for reg in sorted(needed):
            if reg in self.forwards:
                continue
            if self.point.value_mode and reg in group_dsts:
                if self.group_queue is None:
                    self.group_queue = self.alloc_qid()
                self.forwards[reg] = ForwardedValue(reg, self.group_queue, "group:%s" % reg)
            else:
                qid = self.alloc_qid()
                self.forwards[reg] = ForwardedValue(reg, qid, "fwd:%s" % reg)
        return needed

    # -- construction ----------------------------------------------------------

    def build(self, side):
        # The consumer keeps the *original* statement objects (later
        # decoupling points are tracked by identity and live downstream);
        # the producer receives clones.
        def take(stmt):
            return stmt if side == "C" else stmt.clone()

        def emit(body):
            out = []
            for stmt in body:
                sid = id(stmt)
                d = self.dispo[sid]
                kind = stmt.kind
                if kind in _CTRL_KINDS:
                    if not self.keep[side].get(sid):
                        continue
                    if kind == "if":
                        out.append(S.If(stmt.cond, emit(stmt.then_body), emit(stmt.else_body)))
                    elif kind == "for":
                        out.append(S.For(stmt.var, stmt.lo, stmt.hi, stmt.step, emit(stmt.body)))
                    else:
                        out.append(S.Loop(emit(stmt.body)))
                elif d == "X" or d == "B":
                    out.append(take(stmt))
                elif d == "G":
                    out.extend(self._emit_group_member(stmt, side))
                elif d == side:
                    out.append(take(stmt))
                    if side == "P":
                        for reg in stmt.defs():
                            fwd = self.forwards.get(reg)
                            if fwd is not None:
                                out.append(S.Enq(fwd.qid, reg))
                elif d == "P" and side == "C":
                    for reg in stmt.defs():
                        fwd = self.forwards.get(reg)
                        if fwd is not None:
                            out.append(S.Deq(reg, fwd.qid))
                # d == "C" and side == "P": dropped.
            return out

        return emit(self.body)

    def _emit_group_member(self, load, side):
        if self.point.value_mode:
            fwd = self.forwards.get(load.dst)
            if side == "P":
                stmts = [load.clone()]
                if fwd is not None:
                    stmts.append(S.Enq(fwd.qid, load.dst))
                return stmts
            if fwd is not None:
                return [S.Deq(load.dst, fwd.qid)]
            return []
        # Prefetch mode: producer warms the cache and forwards the index via
        # the general rule; the consumer keeps the authoritative load.
        if side == "P":
            return [S.Prefetch(load.array, load.index)]
        return [load]


def split_at(body, point, alloc_qid, params, facts=None):
    """Split ``body`` at ``point``; returns a :class:`SplitOutcome`.

    Raises CompileError/AliasError when the point is not decouplable; the
    caller treats that as "candidate rejected". ``facts`` is ``body``'s
    :class:`BodyFacts` when the caller keeps one.
    """
    splitter = _Splitter(facts or BodyFacts(body, params), point, alloc_qid)
    splitter.classify()
    splitter.resolve()
    producer = splitter.build("P")
    consumer = splitter.build("C")
    forwards = sorted(splitter.forwards.values(), key=lambda f: f.qid)
    return SplitOutcome(producer, consumer, splitter.group_queue, forwards)
