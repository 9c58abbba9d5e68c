"""Loop-nest structure over a region tree.

Detects the *phase loop* — an outermost unbounded loop enclosing the work
nest whose iterations cannot be overlapped (paper Sec. IV-A, "Program
phases", e.g. the level loop of BFS or the convergence loop of
PageRank-Delta) — and weighs code by its loop depth. A statement's
enclosing loops and depth are :func:`repro.ir.stmts.loop_chain` and
:func:`repro.ir.stmts.walk_with_depth`.
"""

from __future__ import annotations

from typing import Any, Optional

from ..ir.stmts import walk_phase_level


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
