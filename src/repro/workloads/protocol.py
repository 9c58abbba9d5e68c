"""The protocols the hand-built variants share, each written once.

The paper's Manual and data-parallel bars are programs written by hand
against Pipette's API; here they are :class:`~repro.ir.IRBuilder` code in
the benchmark modules. What those programs share lives in this module,
and what is particular to one benchmark stays in that benchmark's module:

* the serial kernel — :func:`serial_kernel`, one memo of each lowered
  ``SOURCE`` (a fresh clone per call);
* the pipeline phase protocol — :func:`phase_loop` runs ``while (bound >
  0)``; :func:`phase_end` reads the next fringe size the update stage
  published into ``fringe_size`` between the ``phase`` and ``phase-sync``
  barriers (:func:`barrier_read`, which other shared cells use too);
  :func:`swap` exchanges the two fringe registers and :func:`push` appends
  to the next fringe;
* the CSR neighbour chain — :func:`enq_bounds` drives it with one vertex's
  ``v``, ``v + 1`` and a NEXT marker, :func:`neighbor_chain` declares its
  three queues and two RAs (nodes INDIRECT -> edges SCAN), and
  :func:`manual_program` assembles a manual pipeline;
* the data-parallel frontier protocol — :func:`fringe_segments` walks a
  worker's stripe of the segmented fringe, :func:`dp_push` appends to the
  worker's own segment, :func:`exchange_sizes` all-reduces the segment
  sizes across the double barrier, :func:`dp_program` assembles one worker
  stage per thread, and :func:`segmented_fringe` builds the striped initial
  fringe of ``make_env_dp``.

Barrier tags that differ between benchmarks, stage and register names and
queue labels are arguments. Every program built here is pinned byte for
byte by ``tests/core/golden_compile.json``.
"""

from contextlib import contextmanager

from ..frontend.lowering import compile_source
from ..ir import (
    ArrayDecl,
    Ctrl,
    IRBuilder,
    PipelineProgram,
    QueueSpec,
    RA_INDIRECT,
    RA_SCAN,
    RASpec,
    StageProgram,
)

_kernels = {}


def serial_kernel(source):
    """The lowered serial kernel of ``source``, compiled once per process;
    every call returns a fresh clone the caller may mutate."""
    if source not in _kernels:
        _kernels[source] = compile_source(source)
    return _kernels[source].clone()


# ---------------------------------------------------------------------------
# Pipeline phases


@contextmanager
def phase_loop(b, bound):
    """``while (bound > 0) { ... }``: the body of the ``with`` is one phase."""
    with b.loop():
        done = b.assign("le", [bound, 0])
        with b.if_(done):
            b.break_()
        yield


def barrier_read(b, cell, tag="phase"):
    """Read shared ``cell`` between barriers ``tag`` and ``tag-sync``: every
    stage reaches ``tag`` after the writer published the cell, and none
    leaves ``tag-sync`` (and may write it again) before all have read it."""
    b.barrier(tag)
    value = b.read_shared(cell)
    b.barrier(tag + "-sync")
    return value


def phase_end(b):
    """End a fringe phase: the next phase's bound is the ``next_size`` the
    update stage published before the barrier."""
    b.mov(barrier_read(b, "next_size"), dst="fringe_size")


def swap(b, x, y):
    """Exchange registers ``x`` and ``y`` (the two fringe buffers)."""
    tmp = b.mov(x)
    b.mov(y, dst=x)
    b.mov(tmp, dst=y)


def push(b, v):
    """Append ``v`` to ``next_fringe`` at ``next_size``."""
    b.store("next_fringe", "next_size", v)
    b.binop("add", "next_size", 1, dst="next_size")


# ---------------------------------------------------------------------------
# The CSR neighbour chain and manual pipelines


def enq_bounds(b, queue, v):
    """Drive a nodes INDIRECT RA with vertex ``v``: ``v``, ``v + 1`` and a
    NEXT marker closing the neighbour burst."""
    b.enq(queue, v)
    b.enq(queue, b.binop("add", v, 1))
    b.enq_ctrl(queue, Ctrl.NEXT)


def neighbor_chain(qids, raid=0, array="@edges", labels=("v/v+1", "edge bounds", "neighbors")):
    """``(queues, ras)`` of the chain stage 0 -> nodes INDIRECT -> ``array``
    SCAN -> stage 1 over queue ids ``qids`` (in, bounds, out) and RAs
    ``raid`` and ``raid + 1``."""
    q_in, q_bounds, q_out = qids
    queues = [
        QueueSpec(q_in, ("stage", 0), ("ra", raid), label=labels[0]),
        QueueSpec(q_bounds, ("ra", raid), ("ra", raid + 1), label=labels[1]),
        QueueSpec(q_out, ("ra", raid + 1), ("stage", 1), label=labels[2]),
    ]
    ras = [
        RASpec(raid, RA_INDIRECT, "@nodes", q_in, q_bounds),
        RASpec(raid + 1, RA_SCAN, array, q_bounds, q_out),
    ]
    return queues, ras


def manual_program(name, function, stages, queues, ras, shared=()):
    """The hand-tuned pipeline ``<name>_manual`` over ``function``'s
    arrays and scalars."""
    return PipelineProgram(
        name + "_manual",
        stages,
        queues,
        ras,
        function.arrays,
        function.scalar_params,
        shared_vars=shared,
        meta={"manual": True},
    )


# ---------------------------------------------------------------------------
# Data-parallel frontiers

#: The per-thread segment sizes of the current and the next fringe.
SIZES = ("sizes", "sizes_next")


@contextmanager
def fringe_segments(b, tid, nthreads):
    """Worker ``tid``'s stripe of the segmented fringe ``cur_fringe``:
    element ``j`` of every segment with ``j % nthreads == tid``. Yields the
    vertex register."""
    with b.for_("seg", 0, "nthreads"):
        seg_size = b.load("@sizes", "seg")
        seg_base = b.binop("mul", "seg", "cap")
        with b.for_("j", tid, seg_size, nthreads):
            idx = b.binop("add", seg_base, "j")
            yield b.load("cur_fringe", idx)


def dp_push(b, my_base, v):
    """Append ``v`` to this worker's segment of ``next_fringe``."""
    slot = b.binop("add", my_base, "my_size")
    b.store("next_fringe", slot, v)
    b.binop("add", "my_size", 1, dst="my_size")


def exchange_sizes(b, tid, tag, sync="dp-sync"):
    """Publish ``my_size`` after barrier ``tag``; every worker sums the
    segment sizes into ``total`` and copies them to ``sizes`` for the next
    phase's :func:`fringe_segments`, then waits at ``sync``."""
    b.barrier(tag)
    b.store("@sizes_next", tid, "my_size")
    b.barrier("dp-sizes")
    b.mov(0, dst="total")
    with b.for_("s2", 0, "nthreads"):
        sz = b.load("@sizes_next", "s2")
        b.binop("add", "total", sz, dst="total")
        b.store("@sizes", "s2", sz)
    b.barrier(sync)


def dp_program(name, function, nthreads, worker, scalars, arrays=()):
    """The data-parallel program ``<name>_dp<nthreads>``: one stage per
    thread, whose body ``worker(b, tid)`` writes. ``scalars`` extend the
    kernel's scalar parameters; ``arrays`` name extra 4-byte arrays."""
    stages = []
    for tid in range(nthreads):
        b = IRBuilder(temp_prefix="%d")
        worker(b, tid)
        stages.append(StageProgram(tid, "worker%d" % tid, b.finish()))
    decls = dict(function.arrays)
    for array in arrays:
        decls[array] = ArrayDecl(array, elem_size=4)
    return PipelineProgram(
        "%s_dp%d" % (name, nthreads),
        stages,
        [],
        [],
        decls,
        function.scalar_params + list(scalars),
        meta={"data_parallel": True},
    )


def segmented_fringe(items, nthreads, cap):
    """The data-parallel fringe arrays: ``items`` striped in order over
    ``nthreads`` segments of ``cap`` slots (``ceil(len / nthreads)`` each,
    the last ones short or empty), an empty second fringe, and the sizes."""
    fringe0 = [0] * (cap * nthreads)
    sizes = [0] * nthreads
    per = (len(items) + nthreads - 1) // nthreads
    for t in range(nthreads):
        segment = items[t * per : (t + 1) * per]
        fringe0[t * cap : t * cap + len(segment)] = segment
        sizes[t] = len(segment)
    return {
        "fringe0": fringe0,
        "fringe1": [0] * (cap * nthreads),
        "sizes": sizes,
        "sizes_next": [0] * nthreads,
    }
