"""Intra-stage cleanups run after every transformation.

Stage bodies accumulate dead scalar code as values migrate between stages
(cloned phase scalars a stage no longer needs, addresses whose loads moved
to an RA). Pipeline stages are "extremely sensitive to overhead" (Sec. IV),
so these cleanups — dead pure code elimination and empty-control pruning —
stand in for the ``gcc -O3`` the paper compiles its emitted code with.
"""

from ..ir.stmts import substitute_uses, walk

#: Statement kinds that are removable when their destination is unused (a
#: ``peek`` is pure too, but it keeps its queue protocol).
_REMOVABLE = frozenset(["assign", "read_shared", "is_control", "load"])

#: Kinds whose presence makes a stage non-trivial (it does real work or
#: participates in a queue protocol).
_EFFECTFUL = frozenset(
    [
        "store",
        "atomic_rmw",
        "call",
        "enq",
        "enq_ctrl",
        "enq_dist",
        "enq_ctrl_dist",
        "deq",
        "peek",
        "prefetch",
        "write_shared",
        "load",
    ]
)


def remove_dead_code(body, live_out=(), handler_bodies=()):
    """Drop pure statements whose results are never used, to a fixed point.

    ``live_out`` names registers that must survive (none for stage bodies —
    stages communicate only through queues, memory, and shared cells).
    Loads are removable too: a load whose value is unused has no
    architectural effect (we deliberately do *not* keep it as an implicit
    prefetch — the compiler emits explicit ``Prefetch`` when it wants one).

    Uses are counted once, over the body, the handlers and ``live_out``; a
    dropped statement gives its uses back, so a sweep sees the drops before
    it. Deleting only ever removes uses, so the fixed point is the one
    "collect every use, drop the dead, repeat" reaches.
    """
    uses = {}
    for root in (body, *handler_bodies):
        for stmt in walk(root):
            for reg in stmt.uses():
                uses[reg] = uses.get(reg, 0) + 1
    for reg in live_out:
        uses[reg] = uses.get(reg, 0) + 1
    while _sweep(body, uses):
        pass
    return body


def _sweep(body, uses):
    """Drop the dead pure statements of ``body``, last first (a value's uses
    mostly follow its definition); True if any went."""
    dropped = False
    kept = []
    for stmt in reversed(body):
        if stmt.kind in _REMOVABLE:
            defs = stmt.defs()
            if defs and not any(uses.get(reg) for reg in defs):
                for reg in stmt.uses():
                    uses[reg] -= 1
                dropped = True
                continue
        else:
            for block in stmt.blocks():
                if _sweep(block, uses):
                    dropped = True
        kept.append(stmt)
    if len(kept) != len(body):
        kept.reverse()
        body[:] = kept
    return dropped


def prune_empty_control(body):
    """Remove loops/ifs whose bodies became empty; returns True if changed."""
    changed = True
    any_change = False
    while changed:
        changed = False
        kept = []
        for stmt in body:
            for block in stmt.blocks():
                if prune_empty_control(block):
                    changed = True
            if stmt.kind in ("for", "loop") and not stmt.body:
                changed = True
                continue
            if stmt.kind == "if" and not stmt.then_body and not stmt.else_body:
                changed = True
                continue
            kept.append(stmt)
        if len(kept) != len(body):
            body[:] = kept
        any_change = any_change or changed
    return any_change


def copy_propagate(stage):
    """Forward single-definition ``mov`` copies and drop the movs.

    Safe under the IR's structure: a single-def ``dst = mov(src)`` where
    ``src`` is itself single-def (or a parameter/constant) can have every
    use of ``dst`` replaced by ``src`` — all uses follow the mov, and
    neither register is ever redefined.
    """
    defs = {}
    roots = [stage.body] + list(stage.handlers.values())
    for root in roots:
        for stmt in walk(root):
            for reg in stmt.defs():
                defs.setdefault(reg, []).append(stmt)

    mapping = {}
    for reg, stmts in defs.items():
        if len(stmts) != 1 or stmts[0].kind != "assign" or stmts[0].op != "mov":
            continue
        src = stmts[0].args[0]
        if type(src) is str and not src.startswith("@"):
            if len(defs.get(src, ())) != 1:
                continue
        mapping[reg] = src
    # Resolve chains (a -> b -> c) to their final source.
    for reg in list(mapping):
        seen = {reg}
        target = mapping[reg]
        while type(target) is str and target in mapping and target not in seen:
            seen.add(target)
            target = mapping[target]
        mapping[reg] = target
    if mapping:
        for root in roots:
            substitute_uses(root, mapping)
    return stage


def cleanup_stage(stage):
    """Run all intra-stage cleanups on one StageProgram."""
    handler_bodies = tuple(stage.handlers.values())
    copy_propagate(stage)
    remove_dead_code(stage.body, handler_bodies=handler_bodies)
    if prune_empty_control(stage.body):  # else the body is still a fixed point
        remove_dead_code(stage.body, handler_bodies=handler_bodies)
    return stage


def stage_is_trivial(stage):
    """True if a stage does nothing observable and can be deleted."""
    if stage.handlers:
        return False
    for stmt in walk(stage.body):
        if stmt.kind in _EFFECTFUL:
            return False
    return True
