"""PageRank, push-style (GARDENIA suite).

Classic synchronous PageRank for a fixed number of iterations: each round
*pushes* every vertex's ``rank/degree`` share along its out-edges into a
neighbor-sum array, then a dense apply recomputes ranks. Unlike
PageRank-Delta (:mod:`repro.workloads.prd`) there is no fringe — every
vertex scatters every round — so the kernel is a pure streaming scatter,
the shape RA offloading likes best.

Floating-point: the pipeline performs the scatter in serial order, so its
ranks are bitwise equal to the serial kernel; the data-parallel variant
reassociates the ``atomic_add`` reductions and is checked with a
tolerance (``check_dp``).
"""

from ..ir import Break, Ctrl, EnqCtrl, IRBuilder, QueueSpec, StageProgram
from .protocol import dp_program, enq_bounds, manual_program, neighbor_chain, serial_kernel

NAME = "pr"

#: Damping factor and fixed iteration count.
DAMPING = 0.85
ITERS = 10

SOURCE = """
#pragma phloem
void pr(const int* restrict nodes, const int* restrict edges,
        const int* restrict degree, double* restrict rank,
        double* restrict nghsum, int n, int iters,
        double damping, double base) {
  for (int it = 0; it < iters; it++) {
    for (int v = 0; v < n; v++) {
      int deg = degree[v];
      if (deg > 0) {
        double share = rank[v] / deg;
        int edge_start = nodes[v];
        int edge_end = nodes[v + 1];
        for (int e = edge_start; e < edge_end; e++) {
          int ngh = edges[e];
          double s = nghsum[ngh];
          nghsum[ngh] = s + share;
        }
      }
    }
    for (int u = 0; u < n; u++) {
      rank[u] = base + damping * nghsum[u];
      nghsum[u] = 0.0;
    }
  }
}
"""


def function():
    return serial_kernel(SOURCE)


def make_env(graph, iters=ITERS):
    n = graph.n
    arrays = {
        "nodes": list(graph.nodes),
        "edges": list(graph.edges),
        "degree": [graph.degree(v) for v in range(n)],
        "rank": [1.0 / n] * n,
        "nghsum": [0.0] * n,
    }
    scalars = {
        "n": n,
        "iters": iters,
        "damping": DAMPING,
        "base": (1.0 - DAMPING) / n,
    }
    return arrays, scalars


def reference(graph, iters=ITERS):
    """Oracle ranks: the same algorithm in pure Python (bitwise identical)."""
    n = graph.n
    nodes, edges = graph.nodes, graph.edges
    degree = [graph.degree(v) for v in range(n)]
    rank = [1.0 / n] * n
    nghsum = [0.0] * n
    base = (1.0 - DAMPING) / n
    for _ in range(iters):
        for v in range(n):
            deg = degree[v]
            if deg > 0:
                share = rank[v] / deg
                for e in range(nodes[v], nodes[v + 1]):
                    nghsum[edges[e]] += share
        for u in range(n):
            rank[u] = base + DAMPING * nghsum[u]
            nghsum[u] = 0.0
    return rank


def check(arrays, graph, exact=True, tol=1e-9):
    expected = reference(graph)
    got = arrays["rank"]
    if exact:
        return got == expected
    return all(abs(a - b) <= tol * max(1.0, abs(b)) for a, b in zip(got, expected))


def check_dp(arrays, graph):
    """Data-parallel validation: atomic scatters reassociate the FP sums."""
    return check(arrays, graph, exact=False, tol=1e-6)


# ---------------------------------------------------------------------------
# Manually pipelined variant


def manual_pipeline():
    """3 stages + 2 chained RAs, barrier-free.

    The driver streams every vertex id and its neighbor burst each
    iteration; nothing it reads is ever written by the update stage, so no
    phase barriers are needed — queue capacities alone bound run-ahead.
    The middle stage prefetches the scatter targets; the update stage owns
    rank/nghsum and replays the serial scatter+apply order exactly.
    """
    Q_RA1, Q_PAIRS, Q_NGH, Q_UPD, Q_V = 0, 1, 2, 3, 4

    b = IRBuilder(temp_prefix="%m")
    with b.for_("it", 0, "iters"):
        with b.for_("v", 0, "n"):
            b.enq(Q_V, "v")
            enq_bounds(b, Q_RA1, "v")
    stage0 = StageProgram(0, "drive", b.finish())

    b = IRBuilder(temp_prefix="%p")
    with b.for_("it", 0, "iters"):
        with b.for_("v", 0, "n"):
            with b.loop():
                ngh = b.deq(Q_NGH)
                b.prefetch("@nghsum", ngh)
                b.enq(Q_UPD, ngh)
    stage1 = StageProgram(
        1,
        "prefetch_nghsum",
        b.finish(),
        handlers={Q_NGH: [EnqCtrl(Q_UPD, Ctrl(Ctrl.NEXT)), Break(1)]},
    )

    b = IRBuilder(temp_prefix="%u")
    with b.for_("it", 0, "iters"):
        with b.for_("i", 0, "n"):
            v = b.deq(Q_V)
            deg = b.load("@degree", v)
            b.mov(0.0, dst="share")
            has = b.binop("gt", deg, 0)
            with b.if_(has):
                r = b.load("@rank", v)
                b.binop("div", r, deg, dst="share")
            with b.loop():
                ngh = b.deq(Q_UPD)
                s = b.load("@nghsum", ngh)
                b.store("@nghsum", ngh, b.binop("add", s, "share"))
        with b.for_("u", 0, "n"):
            s = b.load("@nghsum", "u")
            acc = b.binop("add", "base", b.binop("mul", "damping", s))
            b.store("@rank", "u", acc)
            b.store("@nghsum", "u", 0.0)
    stage2 = StageProgram(2, "update", b.finish(), handlers={Q_UPD: [Break(1)]})

    queues, ras = neighbor_chain((Q_RA1, Q_PAIRS, Q_NGH))
    queues += [
        QueueSpec(Q_UPD, ("stage", 1), ("stage", 2), 24, "neighbors'"),
        QueueSpec(Q_V, ("stage", 0), ("stage", 2), 24, "vertices"),
    ]
    return manual_program(NAME, function(), [stage0, stage1, stage2], queues, ras)


# ---------------------------------------------------------------------------
# Data-parallel variant


def data_parallel(nthreads):
    """Vertex-striped scatter with ``atomic_add``, chunk-partitioned apply.

    The apply of iteration ``it`` writes ranks the next scatter reads, so
    each iteration ends with a full barrier before the ranks are consumed
    again.
    """

    def worker(b, tid):
        with b.for_("it", 0, "iters"):
            with b.for_("v", tid, "n", nthreads):
                deg = b.load("@degree", "v")
                has = b.binop("gt", deg, 0)
                with b.if_(has):
                    r = b.load("@rank", "v")
                    share = b.binop("div", r, deg)
                    es = b.load("@nodes", "v")
                    ee = b.load("@nodes", b.binop("add", "v", 1))
                    with b.for_("e", es, ee):
                        ngh = b.load("@edges", "e")
                        b.atomic_add("@nghsum", ngh, share)
            b.barrier("dp-scatter")
            lo = b.binop("mul", tid, "chunk")
            hi = b.assign("min", [b.binop("add", lo, "chunk"), "n"])
            with b.for_("u", lo, hi):
                s = b.load("@nghsum", "u")
                acc = b.binop("add", "base", b.binop("mul", "damping", s))
                b.store("@rank", "u", acc)
                b.store("@nghsum", "u", 0.0)
            b.barrier("dp-apply")

    return dp_program(NAME, function(), nthreads, worker, ["nthreads", "chunk"])


def make_env_dp(graph, nthreads, iters=ITERS):
    arrays, scalars = make_env(graph, iters)
    scalars["nthreads"] = nthreads
    scalars["chunk"] = (graph.n + nthreads - 1) // nthreads
    return arrays, scalars
