"""Flow-insensitive definition/use maps over a region tree.

Phloem's passes are deliberately simple (paper Sec. I: "simple, composable
passes that leverage simple static analyses"); a flow-insensitive map is
conservative but sufficient for the structured kernels the frontend emits,
where temporaries are single-definition and named variables are mutated in
predictable scalar patterns (accumulators, counters).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ..ir.stmts import walk


class DefUse:
    """Definition and use sites of every register in a body.

    ``handlers`` (a stage's handler bodies) join the same maps, so
    ``DefUse(stage.body, stage.handlers.values())`` covers a whole stage.
    """

    def __init__(self, body: Any, handlers: Iterable[Any] = ()) -> None:
        self.defs: dict[str, list[Any]] = {}
        self.uses: dict[str, list[Any]] = {}
        self.body = body
        for root in (body, *handlers):
            for stmt in walk(root):
                for reg in stmt.defs():
                    self.defs.setdefault(reg, []).append(stmt)
                for reg in stmt.uses():
                    self.uses.setdefault(reg, []).append(stmt)

    def defining_stmts(self, reg: str) -> list[Any]:
        return self.defs.get(reg, [])

    def single_def(self, reg: str) -> Optional[Any]:
        """The unique defining statement of ``reg``, or None."""
        stmts = self.defs.get(reg, [])
        return stmts[0] if len(stmts) == 1 else None

    def use_count(self, reg: str) -> int:
        return len(self.uses.get(reg, []))


def pure_regs(body: Any, params: Iterable[str], du: Optional[DefUse] = None) -> set[str]:
    """Registers whose values are computable from scalar parameters alone.

    A register is *pure* if every definition is an ``Assign``/``ReadShared``
    whose register operands are themselves pure, or it is the induction
    variable of a ``For`` loop with pure bounds. Pure values can be
    *replicated* across pipeline stages (each stage recomputes them) instead
    of being communicated — the enabling fact behind the recompute pass and
    phase-scalar replication.

    ``du`` is ``body``'s :class:`DefUse` when the caller already built it.
    """
    if du is None:
        du = DefUse(body)
    pure: set[str] = set(params)

    def operand_pure(a: Any) -> bool:
        # Constants and array symbols (handles) are always pure.
        return type(a) is not str or a.startswith("@") or a in pure

    changed = True
    while changed:
        changed = False
        for reg, stmts in du.defs.items():
            if reg in pure:
                continue
            ok = True
            for stmt in stmts:
                if stmt.kind == "assign":
                    if not all(operand_pure(a) for a in stmt.args):
                        ok = False
                        break
                elif stmt.kind == "read_shared":
                    continue
                elif stmt.kind == "for":
                    if not all(operand_pure(a) for a in (stmt.lo, stmt.hi, stmt.step)):
                        ok = False
                        break
                else:
                    ok = False
                    break
            if ok:
                pure.add(reg)
                changed = True

    # Array-handle registers (pointer locals) may be defined in *cycles* —
    # BFS's fringe swap is `tmp = cur; cur = next; next = tmp` — which a
    # least fixpoint cannot prove. Handles only ever flow through `mov`s, so
    # a greatest fixpoint over mov-closed registers is sound for them: start
    # from every register defined solely by movs of array symbols or other
    # candidates and peel away violators.
    handle_candidates: set[str] = set()
    for reg, stmts in du.defs.items():
        if all(s.kind == "assign" and s.op == "mov" for s in stmts):
            handle_candidates.add(reg)
    changed = True
    while changed:
        changed = False
        for reg in list(handle_candidates):
            for stmt in du.defs[reg]:
                arg = stmt.args[0]
                if type(arg) is str and not arg.startswith("@"):
                    if arg not in handle_candidates and arg not in pure:
                        handle_candidates.discard(reg)
                        changed = True
                        break
                elif type(arg) is not str:
                    # A numeric mov chain is fine too (still replicable).
                    continue
    pure |= handle_candidates
    return pure
