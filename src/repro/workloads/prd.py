"""PageRank-Delta (paper Sec. VI-B).

Fringe-based PageRank: only vertices whose accumulated delta exceeds a
threshold propagate in the next phase. Each phase runs *two* loop nests —
the scatter over the fringe and the dense apply — which exercises the
paper's "program phases" machinery (Sec. IV-A): the nests are decoupled
individually and synchronized with barriers between phases.

Floating-point: ranks/deltas are doubles. The pipeline performs scatter
additions in a single stage in serial order, so its results are bitwise
equal to the serial kernel; the data-parallel variant reorders additions
and is checked against the oracle with a tolerance.
"""

from ..ir import Break, Ctrl, EnqCtrl, IRBuilder, QueueSpec, StageProgram
from .protocol import (
    SIZES,
    dp_program,
    dp_push,
    enq_bounds,
    exchange_sizes,
    fringe_segments,
    manual_program,
    neighbor_chain,
    phase_end,
    phase_loop,
    push,
    segmented_fringe,
    serial_kernel,
    swap,
)

NAME = "prd"

#: Damping factor and propagation threshold.
DAMPING = 0.85
THRESHOLD = 0.01

SOURCE = """
#pragma phloem
void prd(const int* restrict nodes, const int* restrict edges,
         const int* restrict degree,
         double* restrict rank, double* restrict delta, double* restrict nghsum,
         int* restrict fringe0, int* restrict fringe1,
         int n, int fringe_size_init, double damping, double threshold) {
  int* restrict cur_fringe = fringe0;
  int* restrict next_fringe = fringe1;
  int fringe_size = fringe_size_init;
  while (fringe_size > 0) {
    for (int i = 0; i < fringe_size; i++) {
      int v = cur_fringe[i];
      int deg = degree[v];
      double share = delta[v] / (deg + 1);
      int edge_start = nodes[v];
      int edge_end = nodes[v + 1];
      for (int e = edge_start; e < edge_end; e++) {
        int ngh = edges[e];
        double s = nghsum[ngh];
        nghsum[ngh] = s + share;
      }
    }
    int next_size = 0;
    for (int u = 0; u < n; u++) {
      double acc = nghsum[u] * damping;
      double mag = acc;
      if (mag < 0.0) {
        mag = -mag;
      }
      if (mag > threshold) {
        delta[u] = acc;
        rank[u] = rank[u] + acc;
        next_fringe[next_size] = u;
        next_size = next_size + 1;
      }
      nghsum[u] = 0.0;
    }
    int* restrict tmp = cur_fringe;
    cur_fringe = next_fringe;
    next_fringe = tmp;
    fringe_size = next_size;
  }
}
"""


def function():
    return serial_kernel(SOURCE)


def make_env(graph):
    n = graph.n
    degree = [graph.degree(v) for v in range(n)]
    arrays = {
        "nodes": list(graph.nodes),
        "edges": list(graph.edges),
        "degree": degree,
        "rank": [1.0 - DAMPING] * n,
        "delta": [1.0 - DAMPING] * n,
        "nghsum": [0.0] * n,
        "fringe0": list(range(n)) + [0],
        "fringe1": [0] * (n + 1),
    }
    scalars = {
        "n": n,
        "fringe_size_init": n,
        "damping": DAMPING,
        "threshold": THRESHOLD,
    }
    return arrays, scalars


def reference(graph):
    """Oracle ranks: the same algorithm in pure Python (bitwise identical)."""
    n = graph.n
    nodes, edges = graph.nodes, graph.edges
    degree = [graph.degree(v) for v in range(n)]
    rank = [1.0 - DAMPING] * n
    delta = [1.0 - DAMPING] * n
    nghsum = [0.0] * n
    fringe = list(range(n))
    while fringe:
        for v in fringe:
            share = delta[v] / (degree[v] + 1)
            for e in range(nodes[v], nodes[v + 1]):
                nghsum[edges[e]] += share
        nxt = []
        for u in range(n):
            acc = nghsum[u] * DAMPING
            if abs(acc) > THRESHOLD:
                delta[u] = acc
                rank[u] += acc
                nxt.append(u)
            nghsum[u] = 0.0
        fringe = nxt
    return rank


def check(arrays, graph, exact=True, tol=1e-9):
    expected = reference(graph)
    got = arrays["rank"]
    if exact:
        return got == expected
    return all(abs(a - b) <= tol * max(1.0, abs(b)) for a, b in zip(got, expected))


def check_dp(arrays, graph):
    """Validation for the data-parallel variant.

    Its threads reassociate the floating-point delta reductions, so ranks
    match the serial reference only to a tolerance. Decoupled pipelines
    preserve the serial reduction order and use exact :func:`check`.
    """
    return check(arrays, graph, exact=False, tol=1e-6)


def manual_pipeline():
    """Hand-tuned 3-stage + 2-chained-RA pipeline with a prefetch stage.

    Every stage counts the per-phase vertex stream against the shared
    fringe size, so only per-vertex NEXT markers flow through the RA chain
    (no phase DONE). ``delta`` is read in the update stage (it is written
    there within the phase), so only vertex ids cross stages.
    """
    Q_RA1, Q_PAIRS, Q_NGH, Q_UPD, Q_V = 0, 1, 2, 3, 4

    b = IRBuilder(temp_prefix="%m")
    b.mov("@fringe0", dst="cur_fringe")
    b.mov("@fringe1", dst="next_fringe")
    b.mov("fringe_size_init", dst="fringe_size")
    with phase_loop(b, "fringe_size"):
        with b.for_("i", 0, "fringe_size"):
            v = b.load("cur_fringe", "i")
            b.enq(Q_V, v)
            enq_bounds(b, Q_RA1, v)
        phase_end(b)
        swap(b, "cur_fringe", "next_fringe")
    stage0 = StageProgram(0, "scan_fringe", b.finish())

    b = IRBuilder(temp_prefix="%p")
    b.mov("fringe_size_init", dst="fringe_size")
    with phase_loop(b, "fringe_size"):
        with b.for_("i", 0, "fringe_size"):
            with b.loop():
                ngh = b.deq(Q_NGH)
                b.prefetch("@nghsum", ngh)
                b.enq(Q_UPD, ngh)
        phase_end(b)
    stage1 = StageProgram(
        1,
        "prefetch_nghsum",
        b.finish(),
        handlers={Q_NGH: [EnqCtrl(Q_UPD, Ctrl(Ctrl.NEXT)), Break(1)]},
    )

    b = IRBuilder(temp_prefix="%u")
    b.mov("@fringe1", dst="next_fringe")
    b.mov("@fringe0", dst="other")
    b.mov("fringe_size_init", dst="fringe_size")
    with phase_loop(b, "fringe_size"):
        with b.for_("i", 0, "fringe_size"):
            v = b.deq(Q_V)
            deg = b.load("@degree", v)
            dv = b.load("@delta", v)
            share = b.binop("div", dv, b.binop("add", deg, 1))
            with b.loop():
                ngh = b.deq(Q_UPD)
                s = b.load("@nghsum", ngh)
                b.store("@nghsum", ngh, b.binop("add", s, share))
        b.mov(0, dst="next_size")
        with b.for_("u", 0, "n"):
            s = b.load("@nghsum", "u")
            acc = b.binop("mul", s, "damping")
            mag = b.assign("select", [b.binop("lt", acc, 0.0), b.assign("neg", [acc]), acc])
            big = b.binop("gt", mag, "threshold")
            with b.if_(big):
                b.store("@delta", "u", acc)
                r = b.load("@rank", "u")
                b.store("@rank", "u", b.binop("add", r, acc))
                push(b, "u")
            b.store("@nghsum", "u", 0.0)
        b.write_shared("next_size", "next_size")
        phase_end(b)
        swap(b, "next_fringe", "other")
    stage2 = StageProgram(2, "update", b.finish(), handlers={Q_UPD: [Break(1)]})

    queues, ras = neighbor_chain((Q_RA1, Q_PAIRS, Q_NGH))
    queues += [
        QueueSpec(Q_UPD, ("stage", 1), ("stage", 2), 24, "neighbors'"),
        QueueSpec(Q_V, ("stage", 0), ("stage", 2), 24, "vertices"),
    ]
    stages = [stage0, stage1, stage2]
    return manual_program(NAME, function(), stages, queues, ras, shared={"next_size"})


def data_parallel(nthreads):
    """Hand-written data-parallel PRD: atomic scatter + partitioned apply.

    The scatter nest uses fetch-and-add on ``nghsum`` (the instruction-count
    cost the paper attributes to data-parallel PRD); the apply nest is
    statically partitioned by vertex range.
    """

    def worker(b, tid):
        b.mov("@fringe0", dst="cur_fringe")
        b.mov("@fringe1", dst="next_fringe")
        b.mov("fringe_size_init", dst="total")
        with phase_loop(b, "total"):
            with fringe_segments(b, tid, nthreads) as v:
                deg = b.load("@degree", v)
                dv = b.load("@delta", v)
                share = b.binop("div", dv, b.binop("add", deg, 1))
                es = b.load("@nodes", v)
                ee = b.load("@nodes", b.binop("add", v, 1))
                with b.for_("e", es, ee):
                    ngh = b.load("@edges", "e")
                    b.atomic_add("@nghsum", ngh, share)
            b.barrier("dp-scatter")
            b.mov(0, dst="my_size")
            my_base = b.binop("mul", tid, "cap")
            lo = b.binop("mul", tid, "chunk")
            hi0 = b.binop("add", lo, "chunk")
            hi = b.assign("min", [hi0, "n"])
            with b.for_("u", lo, hi):
                s = b.load("@nghsum", "u")
                acc = b.binop("mul", s, "damping")
                mag = b.assign("select", [b.binop("lt", acc, 0.0), b.assign("neg", [acc]), acc])
                big = b.binop("gt", mag, "threshold")
                with b.if_(big):
                    b.store("@delta", "u", acc)
                    r = b.load("@rank", "u")
                    b.store("@rank", "u", b.binop("add", r, acc))
                    dp_push(b, my_base, "u")
                b.store("@nghsum", "u", 0.0)
            exchange_sizes(b, tid, "dp-apply")
            swap(b, "cur_fringe", "next_fringe")

    return dp_program(NAME, function(), nthreads, worker, ["nthreads", "cap", "chunk"], SIZES)


def make_env_dp(graph, nthreads):
    arrays, scalars = make_env(graph)
    cap = graph.n + 1
    arrays.update(segmented_fringe(range(graph.n), nthreads, cap))
    scalars.update(nthreads=nthreads, cap=cap, chunk=(graph.n + nthreads - 1) // nthreads)
    return arrays, scalars
