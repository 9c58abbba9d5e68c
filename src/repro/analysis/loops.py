"""Loop-nest structure over a region tree.

Provides each statement's enclosing loop chain and depth, and detects the
*phase loop* — an outermost unbounded loop enclosing the work nest whose
iterations cannot be overlapped (paper Sec. IV-A, "Program phases", e.g.
the level loop of BFS or the convergence loop of PageRank-Delta).
"""

from __future__ import annotations

from typing import Any, Optional

from ..ir.stmts import walk_phase_level


class LoopNestInfo:
    """Maps statements to their enclosing loops within one body."""

    def __init__(self, body: Any) -> None:
        self.body = body
        #: id(stmt) -> tuple of enclosing loop stmts
        self.parent_chain: dict[int, tuple[Any, ...]] = {}
        #: id(stmt) -> the list that holds the stmt
        self.container: dict[int, Any] = {}
        self._index(body, ())

    def _index(self, body: Any, chain: tuple[Any, ...]) -> None:
        for stmt in body:
            self.parent_chain[id(stmt)] = chain
            self.container[id(stmt)] = body
            inner = chain + (stmt,) if stmt.kind in ("for", "loop") else chain
            for block in stmt.blocks():
                self._index(block, inner)

    def loops_of(self, stmt: Any) -> tuple[Any, ...]:
        """Enclosing loops, outermost first."""
        return self.parent_chain.get(id(stmt), ())

    def depth_of(self, stmt: Any) -> int:
        return len(self.loops_of(stmt))

    def innermost_loop(self, stmt: Any) -> Optional[Any]:
        chain = self.loops_of(stmt)
        return chain[-1] if chain else None


def find_phase_loop(body: Any) -> Optional[Any]:
    """Find a top-level loop that acts as a *phase* loop.

    Heuristic mirroring the paper: the outermost statement list contains a
    single unbounded ``Loop`` (a lowered ``while``) that itself contains at
    least one nested loop (the work nest). Counted top-level ``For`` loops
    over the whole input (e.g. SpMV's row loop) are *not* phases — their
    iterations pipeline freely.
    """
    candidates = [s for s in body if s.kind == "loop"]
    if len(candidates) != 1:
        return None
    loop = candidates[0]
    has_nest = any(inner.kind in ("for", "loop") for inner in walk_phase_level(loop.body))
    return loop if has_nest else None


def estimated_trip_weight(depth: int, base: int = 8) -> float:
    """Frequency weight of code at loop ``depth`` (cost model, Sec. V)."""
    return float(base**depth)
