"""Program-phase transform (paper Sec. IV-A, "Program phases").

Kernels like BFS and PageRank-Delta wrap their work nest in a convergence
loop whose iterations cannot be overlapped across stages. Before
decoupling, this prepass makes the cross-phase scalar flow explicit:

* every scalar that is computed inside the work nest and consumed at phase
  level (e.g. BFS's ``next_size``) is routed through a *shared cell*;
* two barriers bracket the hand-off: stages synchronize, the owner's write
  becomes visible, every stage reads it, and a second barrier keeps a fast
  stage's next-phase write from racing a slow stage's read.

The transform is semantics-preserving on serial code (shared cells are just
memory and a one-participant barrier is free), and after decoupling it puts
the ``WriteShared`` in whichever stage computes the value while the reads
and phase-level recomputation replicate into every stage.
"""

from ..ir import stmts as S
from ..ir.stmts import substitute_uses, walk, walk_phase_level


def _nest_defined_regs(loop_body):
    """Registers with a definition inside a nested loop of the phase body."""
    regs = set()
    for stmt in loop_body:
        if stmt.kind in ("for", "loop"):
            for inner in walk([stmt]):
                if inner is stmt:
                    continue
                regs.update(inner.defs())
        elif stmt.kind == "if":
            for block in stmt.blocks():
                regs |= _nest_defined_regs(block)
    return regs


def apply_phase_transform(function, phase_loop):
    """Rewrite ``phase_loop`` in place; returns the shared variable names.

    Inserts, after the last nested loop of the phase body::

        write_shared(<r>, r)   # for each nest-computed, phase-used scalar
        barrier(phase)
        r = read_shared(<r>)
        barrier(phase-sync)
    """
    body = phase_loop.body
    nest_defined = _nest_defined_regs(body)
    used_at_phase = set()
    for stmt in walk_phase_level(body):
        if stmt.kind in ("for", "loop"):
            continue
        used_at_phase.update(stmt.uses())
    # The loop condition check (If/Break at phase level) is included above.

    shared = sorted(nest_defined & used_at_phase)
    if not shared:
        # Still synchronize phases: stages must not overlap phase N+1 with N.
        insert_at = _position_after_last_loop(body)
        body.insert(insert_at, S.Barrier("phase"))
        return []

    insert_at = _position_after_last_loop(body)
    # Rename downstream uses to the freshly-read value so the phase-level
    # recomputation chain is *pure* (its only reaching definition is the
    # ReadShared), which is what lets every stage replicate it.
    renames = {reg: "%s__phase" % reg for reg in shared}
    substitute_uses(body[insert_at:], renames)
    inserted = []
    for reg in shared:
        inserted.append(S.WriteShared(reg, reg))
    inserted.append(S.Barrier("phase"))
    for reg in shared:
        inserted.append(S.ReadShared(renames[reg], reg))
    inserted.append(S.Barrier("phase-sync"))
    body[insert_at:insert_at] = inserted
    return shared


def _position_after_last_loop(body):
    last = 0
    for index, stmt in enumerate(body):
        if stmt.kind in ("for", "loop"):
            last = index + 1
    return last


def prepare_phases(function, profiler=None):
    """Detect and transform the phase loop; returns shared var names.

    ``profiler`` (a :class:`repro.obs.PassProfiler`) records the transform
    as a ``"phases"`` pass; the record only appears when a phase loop is
    actually found and rewritten.
    """
    from ..analysis.loops import find_phase_loop

    phase_loop = find_phase_loop(function.body)
    if phase_loop is None:
        return []
    if profiler is None:
        return apply_phase_transform(function, phase_loop)
    return profiler.measure(
        "phases", function, lambda: apply_phase_transform(function, phase_loop)
    )
