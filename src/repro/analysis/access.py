"""Memory-access classification (paper Sec. V, the static cost model's eyes).

Classifies each load's address pattern:

* ``sequential`` — affine in an enclosing loop's induction variable
  (streaming scans; cheap, the prefetcher covers them);
* ``indirect`` — the index depends, through scalar computation, on another
  load's result (the multi-level indirections that make applications
  irregular); carries an indirection *depth*;
* ``other`` — anything else (queue-fed indices, opaque values).

Also resolves affine index shapes ``root ± constant`` so that *nearby*
accesses (``nodes[v]``/``nodes[v+1]``) can be grouped into one decoupling
point, as the paper describes.
"""

from __future__ import annotations

from typing import Any, Optional

from ..ir.stmts import walk_with_depth
from .alias import access_class
from .defs import DefUse

SEQUENTIAL = "sequential"
INDIRECT = "indirect"
OTHER = "other"


def affine_root(index: Any, du: DefUse, _depth: int = 0) -> tuple[Any, Any]:
    """Resolve ``index`` to ``(root_operand, constant_offset)``.

    Follows single-definition ``mov``/``add``/``sub``-by-constant chains.
    ``root_operand`` may be a register, a constant, or None when the chain
    is not affine.
    """
    if type(index) is not str:
        return index, 0
    if _depth > 32:
        return None, 0
    stmt = du.single_def(index)
    if stmt is None:
        return index, 0  # parameter or multiply-defined: itself the root
    if stmt.kind == "for":
        return index, 0
    if stmt.kind != "assign":
        return index, 0
    if stmt.op == "mov":
        root, off = affine_root(stmt.args[0], du, _depth + 1)
        return root, off
    if stmt.op in ("add", "sub"):
        a, b = stmt.args
        if type(b) is not str and stmt.op in ("add", "sub"):
            root, off = affine_root(a, du, _depth + 1)
            if root is not None:
                return root, off + (b if stmt.op == "add" else -b)
        if stmt.op == "add" and type(a) is not str:
            root, off = affine_root(b, du, _depth + 1)
            if root is not None:
                return root, off + a
    return index, 0


def _depends_on_load(reg: Any, du: DefUse, seen: Optional[set[str]] = None) -> int:
    """Does ``reg``'s value derive (through scalar ops) from a load/deq?

    Returns the number of loads on the deepest dependence path (the
    indirection depth), or 0.
    """
    if seen is None:
        seen = set()
    if type(reg) is not str or reg in seen:
        return 0
    seen.add(reg)
    best = 0
    for stmt in du.defining_stmts(reg):
        if stmt.kind == "load":
            inner = _depends_on_load(stmt.index, du, seen)
            best = max(best, 1 + inner)
        elif stmt.kind in ("deq", "peek"):
            best = max(best, 1)  # fed by another stage: data-dependent
        elif stmt.kind == "assign":
            for a in stmt.args:
                best = max(best, _depends_on_load(a, du, seen))
        elif stmt.kind == "for":
            for a in (stmt.lo, stmt.hi):
                best = max(best, _depends_on_load(a, du, seen))
    return best


class AccessInfo:
    """Classification of one load."""

    __slots__ = ("stmt", "kind", "depth", "indirection", "root", "offset", "cls")

    def __init__(
        self,
        stmt: Any,
        kind: str,
        depth: int,
        indirection: int,
        root: Any,
        offset: Any,
    ) -> None:
        self.stmt = stmt
        self.kind = kind
        self.depth = depth  # loop depth
        self.indirection = indirection  # chained-load count feeding the index
        self.root = root
        self.offset = offset
        self.cls = access_class(stmt.array)

    def __repr__(self) -> str:
        return "Access(%s[%s]: %s, loop depth %d, indirection %d)" % (
            self.stmt.array,
            self.stmt.index,
            self.kind,
            self.depth,
            self.indirection,
        )


def classify_loads(body: Any) -> list[AccessInfo]:
    """Classify every load in ``body``; returns a list of AccessInfo."""
    du = DefUse(body)
    infos = []
    for stmt, depth in walk_with_depth(body):
        if stmt.kind != "load":
            continue
        root, offset = affine_root(stmt.index, du)
        kind = OTHER
        indirection = 0
        if type(root) is not str:
            kind = SEQUENTIAL  # constant index
        else:
            root_def = du.single_def(root)
            if root_def is not None and root_def.kind == "for":
                # Affine in an induction variable: a scan. Its *bounds* may
                # be data-dependent (edge-list scans), which raises the
                # indirection depth without changing the streaming kind.
                kind = SEQUENTIAL
                indirection = max(
                    _depends_on_load(root_def.lo, du), _depends_on_load(root_def.hi, du)
                )
            else:
                indirection = _depends_on_load(root, du)
                kind = INDIRECT if indirection > 0 else OTHER
        infos.append(AccessInfo(stmt, kind, depth, indirection, root, offset))
    return infos
