"""Triangle Counting (GARDENIA suite).

Ordered merge-intersection TC: for every edge ``(u, v)`` with ``v > u``,
the sorted adjacency lists of ``u`` and ``v`` are merge-intersected
counting common neighbors ``w < u``, so each triangle ``w < u < v`` is
counted exactly once. Like SpMM, the merge's pointer advances depend on
loaded values — the compiler cannot decouple inside it — so the manual
pipeline uses the same skip-ahead drain trick on its two coordinate
streams.

The kernel requires canonical adjacency (ascending, duplicate-free,
self-loop-free); :func:`make_env` canonicalizes whatever graph it is
given, so generator outputs with duplicate edges are fine. All arithmetic
is integer, so every variant is exact.
"""

from ..ir import Ctrl, IRBuilder, QueueSpec, RA_SCAN, RASpec, StageProgram
from . import graphs
from .protocol import dp_program, manual_program, serial_kernel

NAME = "tc"

SOURCE = """
#pragma phloem
void tc(const int* restrict nodes, const int* restrict edges,
        int* restrict total, int n) {
  int count = 0;
  for (int u = 0; u < n; u++) {
    int ub = nodes[u];
    int ue = nodes[u + 1];
    for (int i = ub; i < ue; i++) {
      int v = edges[i];
      if (v > u) {
        int pa = ub;
        int pb = nodes[v];
        int pb_end = nodes[v + 1];
        while (pa < ue && pb < pb_end) {
          int wa = edges[pa];
          if (wa >= u) {
            break;
          }
          int wb = edges[pb];
          if (wa == wb) {
            count = count + 1;
            pa = pa + 1;
            pb = pb + 1;
          } else if (wa < wb) {
            pa = pa + 1;
          } else {
            pb = pb + 1;
          }
        }
      }
    }
  }
  total[0] = count;
}
"""


def function():
    return serial_kernel(SOURCE)


def make_env(graph):
    g = graphs.canonicalize(graph)
    arrays = {
        "nodes": list(g.nodes),
        "edges": list(g.edges),
        "total": [0],
    }
    scalars = {"n": g.n}
    return arrays, scalars


def reference(graph):
    """Oracle triangle count via set intersections (independent algorithm)."""
    g = graphs.canonicalize(graph)
    neighbor_sets = [set(g.neighbors(v)) for v in range(g.n)]
    count = 0
    for u in range(g.n):
        nu = neighbor_sets[u]
        for v in nu:
            if v > u:
                count += sum(1 for w in nu & neighbor_sets[v] if w < u)
    return count


def check(arrays, graph):
    return arrays["total"][0] == reference(graph)


# ---------------------------------------------------------------------------
# Manually pipelined variant


def manual_pipeline():
    """Driver + merge stage over two scan RAs (the SpMM skip-ahead trick).

    The driver walks each vertex's adjacency itself (those reads are
    sequential and cache-friendly); for each oriented edge ``(u, v>u)`` it
    ships ``u`` and the two list bounds, and the merge stage intersects
    the RA-streamed lists, draining both to their NEXT markers as soon as
    the ``w < u`` cutoff or either end is reached.
    """
    Q_A_IN, Q_B_IN, Q_A, Q_B, Q_U = 0, 1, 2, 3, 4

    b = IRBuilder(temp_prefix="%m")
    with b.for_("u", 0, "n"):
        ub = b.load("@nodes", "u")
        ue = b.load("@nodes", b.binop("add", "u", 1))
        with b.for_("i", ub, ue):
            v = b.load("@edges", "i")
            fwd = b.binop("gt", v, "u")
            with b.if_(fwd):
                pb = b.load("@nodes", v)
                pbe = b.load("@nodes", b.binop("add", v, 1))
                b.enq(Q_U, "u")
                b.enq(Q_A_IN, ub)
                b.enq(Q_A_IN, ue)
                b.enq_ctrl(Q_A_IN, Ctrl.NEXT)
                b.enq(Q_B_IN, pb)
                b.enq(Q_B_IN, pbe)
                b.enq_ctrl(Q_B_IN, Ctrl.NEXT)
    b.enq_ctrl(Q_U, Ctrl.DONE)
    stage0 = StageProgram(0, "drive", b.finish())

    b = IRBuilder(temp_prefix="%t")
    b.mov(0, dst="count")
    with b.loop():
        u = b.deq(Q_U, dst="u")
        at_end = b.is_control("u")
        with b.if_(at_end):
            b.break_()
        ka = b.deq(Q_A, dst="ka")
        kb = b.deq(Q_B, dst="kb")
        with b.loop():
            ca = b.is_control("ka")
            with b.if_(ca):
                cb0 = b.is_control("kb")
                nb0 = b.assign("not", [cb0])
                with b.if_(nb0):
                    with b.loop():
                        x = b.deq(Q_B)
                        cx = b.is_control(x)
                        with b.if_(cx):
                            b.break_()
                b.break_()
            cb = b.is_control("kb")
            with b.if_(cb):
                with b.loop():
                    x = b.deq(Q_A)
                    cx = b.is_control(x)
                    with b.if_(cx):
                        b.break_()
                b.break_()
            # Cutoff: lists are ascending and only w < u count, so once
            # either head reaches u both streams can be drained outright.
            cut = b.binop("ge", b.assign("max", ["ka", "kb"]), "u")
            with b.if_(cut):
                with b.loop():
                    x = b.deq(Q_A)
                    cx = b.is_control(x)
                    with b.if_(cx):
                        b.break_()
                with b.loop():
                    y = b.deq(Q_B)
                    cy = b.is_control(y)
                    with b.if_(cy):
                        b.break_()
                b.break_()
            eq = b.binop("eq", "ka", "kb")
            with b.if_(eq):
                b.binop("add", "count", 1, dst="count")
                b.deq(Q_A, dst="ka")
                b.deq(Q_B, dst="kb")
                b.continue_()
            lt = b.binop("lt", "ka", "kb")
            with b.if_(lt):
                b.deq(Q_A, dst="ka")
                b.continue_()
            b.deq(Q_B, dst="kb")
    b.store("@total", 0, "count")
    stage1 = StageProgram(1, "merge", b.finish())

    queues = [
        QueueSpec(Q_A_IN, ("stage", 0), ("ra", 0), label="u-list bounds"),
        QueueSpec(Q_B_IN, ("stage", 0), ("ra", 1), label="v-list bounds"),
        QueueSpec(Q_A, ("ra", 0), ("stage", 1), label="u-list"),
        QueueSpec(Q_B, ("ra", 1), ("stage", 1), label="v-list"),
        QueueSpec(Q_U, ("stage", 0), ("stage", 1), label="pivot u"),
    ]
    ras = [
        RASpec(0, RA_SCAN, "@edges", Q_A_IN, Q_A),
        RASpec(1, RA_SCAN, "@edges", Q_B_IN, Q_B),
    ]
    return manual_program(NAME, function(), [stage0, stage1], queues, ras)


# ---------------------------------------------------------------------------
# Data-parallel variant


def data_parallel(nthreads):
    """Pivot-striped TC: worker t handles ``u % nthreads == t``.

    Each worker counts its pivots' triangles locally and folds the local
    count into ``total[0]`` with one integer ``atomic_add`` at the end —
    integer arithmetic, so the result is exact regardless of interleaving.
    """

    def worker(b, tid):
        b.mov(0, dst="count")
        with b.for_("u", tid, "n", nthreads):
            ub = b.load("@nodes", "u")
            ue = b.load("@nodes", b.binop("add", "u", 1))
            with b.for_("i", ub, ue):
                v = b.load("@edges", "i")
                fwd = b.binop("gt", v, "u")
                with b.if_(fwd):
                    b.mov(ub, dst="pa")
                    pb0 = b.load("@nodes", v)
                    pbe = b.load("@nodes", b.binop("add", v, 1))
                    b.mov(pb0, dst="pb")
                    with b.loop():
                        more_a = b.binop("lt", "pa", ue)
                        more_b = b.binop("lt", "pb", pbe)
                        stop = b.assign("not", [b.binop("and", more_a, more_b)])
                        with b.if_(stop):
                            b.break_()
                        wa = b.load("@edges", "pa")
                        cut = b.binop("ge", wa, "u")
                        with b.if_(cut):
                            b.break_()
                        wb = b.load("@edges", "pb")
                        eq = b.binop("eq", wa, wb)
                        with b.if_(eq):
                            b.binop("add", "count", 1, dst="count")
                            b.binop("add", "pa", 1, dst="pa")
                            b.binop("add", "pb", 1, dst="pb")
                            b.continue_()
                        lt = b.binop("lt", wa, wb)
                        with b.if_(lt):
                            b.binop("add", "pa", 1, dst="pa")
                            b.continue_()
                        b.binop("add", "pb", 1, dst="pb")
        b.atomic_add("@total", 0, "count")

    return dp_program(NAME, function(), nthreads, worker, ["nthreads"])


def make_env_dp(graph, nthreads):
    arrays, scalars = make_env(graph)
    scalars["nthreads"] = nthreads
    return arrays, scalars
