"""Betweenness Centrality (GARDENIA suite; Brandes, single source).

Brandes' two-phase algorithm from one root: a queue-based forward BFS
accumulates shortest-path counts (``sigma``) and records the visit order,
then a backward sweep over that order in reverse scatters dependency
values (``delta``) to predecessors and folds them into ``centrality``.
Inputs are canonicalized to undirected form (the GARDENIA convention;
the backward scatter walks the same adjacency the forward phase did,
which requires symmetry).

Path counts are integers stored in doubles (exact in FP up to 2^53), so
the forward phase is exact everywhere; the backward phase divides, so the
data-parallel variant — which pulls dependencies per-predecessor instead
of pushing in visit order — matches the oracle only to a tolerance
(``check_dp``). The serial kernel and the manual pipeline replay the same
push order and are bitwise exact.
"""

from collections import deque

from ..ir import IRBuilder, QueueSpec, StageProgram
from . import graphs
from .protocol import (
    SIZES,
    barrier_read,
    dp_program,
    dp_push,
    enq_bounds,
    exchange_sizes,
    fringe_segments,
    manual_program,
    neighbor_chain,
    phase_loop,
    segmented_fringe,
    serial_kernel,
    swap,
)

#: Unvisited marker used by the data-parallel variant's atomic claims.
INF = 2**30

NAME = "bc"

SOURCE = """
#pragma phloem
void bc(const int* restrict nodes, const int* restrict edges,
        int* restrict dist, double* restrict sigma, int* restrict order,
        double* restrict delta, double* restrict centrality,
        int n, int root) {
  int head = 0;
  int tail = 1;
  while (head < tail) {
    int v = order[head];
    head = head + 1;
    int dv = dist[v];
    int edge_start = nodes[v];
    int edge_end = nodes[v + 1];
    for (int e = edge_start; e < edge_end; e++) {
      int w = edges[e];
      int dw = dist[w];
      if (dw < 0) {
        dist[w] = dv + 1;
        sigma[w] = sigma[w] + sigma[v];
        order[tail] = w;
        tail = tail + 1;
      } else if (dw == dv + 1) {
        sigma[w] = sigma[w] + sigma[v];
      }
    }
  }
  for (int t = 0; t < tail; t++) {
    int w = order[tail - 1 - t];
    int dw = dist[w];
    double coeff = (1.0 + delta[w]) / sigma[w];
    int edge_start = nodes[w];
    int edge_end = nodes[w + 1];
    for (int e = edge_start; e < edge_end; e++) {
      int v = edges[e];
      if (dist[v] == dw - 1) {
        delta[v] = delta[v] + sigma[v] * coeff;
      }
    }
    if (w != root) {
      centrality[w] = centrality[w] + delta[w];
    }
  }
}
"""


def function():
    return serial_kernel(SOURCE)


def default_root(graph):
    """A deterministic, well-connected root: the max-degree vertex."""
    return max(range(graph.n), key=graph.degree)


def make_env(graph, root=None):
    graph = graphs.canonicalize(graph)
    n = graph.n
    if root is None:
        root = default_root(graph)
    dist = [-1] * n
    dist[root] = 0
    sigma = [0.0] * n
    sigma[root] = 1.0
    order = [0] * n
    order[0] = root
    arrays = {
        "nodes": list(graph.nodes),
        "edges": list(graph.edges),
        "dist": dist,
        "sigma": sigma,
        "order": order,
        "delta": [0.0] * n,
        "centrality": [0.0] * n,
    }
    scalars = {"n": n, "root": root}
    return arrays, scalars


def reference(graph, root=None):
    """Oracle centrality: Brandes in pure Python, same visit order."""
    graph = graphs.canonicalize(graph)
    n = graph.n
    if root is None:
        root = default_root(graph)
    nodes, edges = graph.nodes, graph.edges
    dist = [-1] * n
    dist[root] = 0
    sigma = [0.0] * n
    sigma[root] = 1.0
    order = deque([root])
    visited = [root]
    while order:
        v = order.popleft()
        dv = dist[v]
        for e in range(nodes[v], nodes[v + 1]):
            w = edges[e]
            if dist[w] < 0:
                dist[w] = dv + 1
                sigma[w] += sigma[v]
                order.append(w)
                visited.append(w)
            elif dist[w] == dv + 1:
                sigma[w] += sigma[v]
    delta = [0.0] * n
    centrality = [0.0] * n
    for w in reversed(visited):
        dw = dist[w]
        coeff = (1.0 + delta[w]) / sigma[w]
        for e in range(nodes[w], nodes[w + 1]):
            v = edges[e]
            if dist[v] == dw - 1:
                delta[v] += sigma[v] * coeff
        if w != root:
            centrality[w] += delta[w]
    return centrality


def check(arrays, graph, root=None, exact=True, tol=1e-9):
    expected = reference(graph, root)
    got = arrays["centrality"]
    if exact:
        return got == expected
    return all(abs(a - b) <= tol * max(1.0, abs(b)) for a, b in zip(got, expected))


def check_dp(arrays, graph):
    """Data-parallel validation: the pull-based backward phase
    reassociates the dependency sums."""
    return check(arrays, graph, exact=False, tol=1e-6)


# ---------------------------------------------------------------------------
# Manually pipelined variant


def manual_pipeline():
    """Forward BFS in the driver, pipelined backward sweep.

    The forward phase is inherently serial (the BFS queue *is* the data
    structure), so stage 0 runs it alone while the update stage waits at
    the phase barrier. The backward sweep — the dominant, irregular phase
    — is then decoupled: stage 0 walks ``order`` in reverse, shipping
    each vertex and its neighbor burst through the nodes->edges RA chain,
    and stage 1 owns delta/centrality and replays the serial scatter
    order exactly. After the barrier stage 0 only reads arrays it wrote
    during the forward phase, so the split is race-free.
    """
    Q_RA1, Q_PAIRS, Q_NGH, Q_W = 0, 1, 2, 3

    b = IRBuilder(temp_prefix="%m")
    b.mov(0, dst="head")
    b.mov(1, dst="tail")
    with b.loop():
        done = b.assign("ge", ["head", "tail"])
        with b.if_(done):
            b.break_()
        v = b.load("@order", "head")
        b.binop("add", "head", 1, dst="head")
        dv = b.load("@dist", v)
        nd = b.binop("add", dv, 1)
        es = b.load("@nodes", v)
        ee = b.load("@nodes", b.binop("add", v, 1))
        with b.for_("e", es, ee):
            w = b.load("@edges", "e")
            dw = b.load("@dist", w)
            unseen = b.binop("lt", dw, 0)
            with b.if_(unseen):
                b.store("@dist", w, nd)
                sw = b.load("@sigma", w)
                sv = b.load("@sigma", v)
                b.store("@sigma", w, b.binop("add", sw, sv))
                b.store("@order", "tail", w)
                b.binop("add", "tail", 1, dst="tail")
            same = b.binop("eq", dw, nd)
            with b.if_(same):
                sw = b.load("@sigma", w)
                sv = b.load("@sigma", v)
                b.store("@sigma", w, b.binop("add", sw, sv))
    b.write_shared("tail", "tail")
    b.barrier("fwd")
    b.barrier("fwd-sync")
    with b.for_("t", 0, "tail"):
        idx = b.binop("sub", b.binop("sub", "tail", 1), "t")
        w = b.load("@order", idx)
        b.enq(Q_W, w)
        enq_bounds(b, Q_RA1, w)
    stage0 = StageProgram(0, "forward+drive", b.finish())

    b = IRBuilder(temp_prefix="%u")
    tail = barrier_read(b, "tail", "fwd")
    with b.for_("t", 0, tail):
        w = b.deq(Q_W)
        dw = b.load("@dist", w)
        dlt = b.load("@delta", w)
        sg = b.load("@sigma", w)
        coeff = b.binop("div", b.binop("add", 1.0, dlt), sg)
        prev = b.binop("sub", dw, 1)
        with b.loop():
            v = b.deq(Q_NGH)
            at_end = b.is_control(v)
            with b.if_(at_end):
                b.break_()
            dv = b.load("@dist", v)
            pred = b.binop("eq", dv, prev)
            with b.if_(pred):
                dl = b.load("@delta", v)
                sv = b.load("@sigma", v)
                b.store("@delta", v, b.binop("add", dl, b.binop("mul", sv, coeff)))
        not_root = b.binop("ne", w, "root")
        with b.if_(not_root):
            c = b.load("@centrality", w)
            dl = b.load("@delta", w)
            b.store("@centrality", w, b.binop("add", c, dl))
    stage1 = StageProgram(1, "accumulate", b.finish())

    queues, ras = neighbor_chain(
        (Q_RA1, Q_PAIRS, Q_NGH), labels=("w/w+1", "edge bounds", "neighbors")
    )
    queues.append(QueueSpec(Q_W, ("stage", 0), ("stage", 1), label="vertices"))
    return manual_program(NAME, function(), [stage0, stage1], queues, ras, shared={"tail"})


# ---------------------------------------------------------------------------
# Data-parallel variant


def data_parallel(nthreads):
    """Level-synchronous forward + pull-based backward.

    Forward mirrors the data-parallel BFS (segmented fringes, atomic-min
    claims); shortest-path counts accumulate with ``atomic_add`` — exact,
    since they are integers in doubles. Backward runs level by level in
    decreasing depth; each vertex *pulls* from its successors, so its
    ``delta`` has a single writer and only the FP association differs
    from the serial push order.
    """

    def worker(b, tid):
        b.mov("@fringe0", dst="cur_fringe")
        b.mov("@fringe1", dst="next_fringe")
        b.mov(0, dst="cur_dist")
        b.mov(1, dst="total")
        with phase_loop(b, "total"):
            b.mov(0, dst="my_size")
            nd = b.binop("add", "cur_dist", 1)
            my_base = b.binop("mul", tid, "cap")
            with fringe_segments(b, tid, nthreads) as v:
                sv = b.load("@sigma", v)
                es = b.load("@nodes", v)
                ee = b.load("@nodes", b.binop("add", v, 1))
                with b.for_("e", es, ee):
                    w = b.load("@edges", "e")
                    old = b.atomic_min("@dist", w, nd)
                    claimed = b.binop("gt", old, nd)
                    with b.if_(claimed):
                        dp_push(b, my_base, w)
                    at_level = b.binop("ge", old, nd)
                    with b.if_(at_level):
                        b.atomic_add("@sigma", w, sv)
            exchange_sizes(b, tid, "dp-phase")
            b.binop("add", "cur_dist", 1, dst="cur_dist")
            swap(b, "cur_fringe", "next_fringe")
        # cur_dist now exceeds the deepest level; sweep levels downward.
        with b.for_("lvl", 0, "cur_dist"):
            d = b.binop("sub", b.binop("sub", "cur_dist", 1), "lvl")
            succ = b.binop("add", d, 1)
            with b.for_("v", tid, "n", nthreads):
                dv = b.load("@dist", "v")
                here = b.binop("eq", dv, d)
                with b.if_(here):
                    sv = b.load("@sigma", "v")
                    b.mov(0.0, dst="acc")
                    es = b.load("@nodes", "v")
                    ee = b.load("@nodes", b.binop("add", "v", 1))
                    with b.for_("e", es, ee):
                        w = b.load("@edges", "e")
                        dw = b.load("@dist", w)
                        is_succ = b.binop("eq", dw, succ)
                        with b.if_(is_succ):
                            dl = b.load("@delta", w)
                            sw = b.load("@sigma", w)
                            contrib = b.binop(
                                "mul", sv, b.binop("div", b.binop("add", 1.0, dl), sw)
                            )
                            b.binop("add", "acc", contrib, dst="acc")
                    b.store("@delta", "v", "acc")
            b.barrier("dp-back")
        with b.for_("v2", tid, "n", nthreads):
            dv = b.load("@dist", "v2")
            reached = b.binop("ge", dv, 0)
            not_root = b.binop("ne", "v2", "root")
            fold = b.binop("and", reached, not_root)
            with b.if_(fold):
                c = b.load("@centrality", "v2")
                dl = b.load("@delta", "v2")
                b.store("@centrality", "v2", b.binop("add", c, dl))

    # The serial kernel has no fringe: the forward phase's buffers are new.
    arrays = ("fringe0", "fringe1") + SIZES
    return dp_program(NAME, function(), nthreads, worker, ["nthreads", "cap"], arrays)


def make_env_dp(graph, nthreads, root=None):
    graph = graphs.canonicalize(graph)
    n = graph.n
    if root is None:
        root = default_root(graph)
    dist = [INF] * n
    dist[root] = 0
    sigma = [0.0] * n
    sigma[root] = 1.0
    arrays = {
        "nodes": list(graph.nodes),
        "edges": list(graph.edges),
        "dist": dist,
        "sigma": sigma,
        "order": [0] * n,
        "delta": [0.0] * n,
        "centrality": [0.0] * n,
    }
    arrays.update(segmented_fringe([root], nthreads, n + 1))
    scalars = {"n": n, "root": root, "nthreads": nthreads, "cap": n + 1}
    return arrays, scalars
