"""Single-Source Shortest Paths (GARDENIA suite; delta-stepping).

Bucketed delta-stepping over integer edge weights: vertices are settled in
distance buckets of width ``delta``; inside a bucket the kernel iterates to
a fixpoint (light-edge relaxations can reinsert a vertex into the current
bucket), then a dense sweep counts the vertices still waiting for a later
bucket. Integer weights keep every variant exact: relaxations commute, so
even the data-parallel variant's ``atomic_min`` races converge to the same
distances the Dijkstra oracle computes.

Variants:

* ``SOURCE`` — the serial mini-C kernel (scan-based buckets; the fringe
  membership test ``dist[v] < limit && dist[v] < done[v]`` replaces an
  explicit bucket queue, which keeps the kernel decouplable);
* :func:`reference` — a heapq Dijkstra oracle;
* :func:`data_parallel` — vertex-striped workers, ``atomic_min`` on
  distances, per-round changed/remaining flags across double barriers;
* :func:`manual_pipeline` — a 2-stage pipeline where the driver streams
  every candidate's neighbor and weight bursts through two chained RA
  pairs (nodes indirect -> edges/weights scan) and the update stage owns
  all distance state, with shared changed/remaining cells at phase
  barriers.
"""

import heapq

from ..ir import Ctrl, IRBuilder, StageProgram
from . import graphs
from .protocol import (
    barrier_read,
    dp_program,
    manual_program,
    neighbor_chain,
    phase_loop,
    serial_kernel,
)

#: "Infinity" for unreached vertices; small enough that limit arithmetic
#: never wraps a 32-bit int even after adding a max weight.
INF = 2**30

#: Default weight range for auto-weighted plain graphs.
MAX_WEIGHT = 64

NAME = "sssp"

SOURCE = """
#pragma phloem
void sssp(const int* restrict nodes, const int* restrict edges,
          const int* restrict weights, int* restrict dist,
          int* restrict done, int n, int delta) {
  int k = 0;
  int remaining = 1;
  while (remaining > 0) {
    int limit = (k + 1) * delta;
    int changed = 1;
    while (changed > 0) {
      changed = 0;
      for (int v = 0; v < n; v++) {
        int dv = dist[v];
        if (dv < limit && dv < done[v]) {
          done[v] = dv;
          int edge_start = nodes[v];
          int edge_end = nodes[v + 1];
          for (int e = edge_start; e < edge_end; e++) {
            int w = edges[e];
            int alt = dv + weights[e];
            if (alt < dist[w]) {
              dist[w] = alt;
              if (alt < limit) {
                changed = 1;
              }
            }
          }
        }
      }
    }
    remaining = 0;
    for (int u = 0; u < n; u++) {
      if (dist[u] < done[u]) {
        remaining = remaining + 1;
      }
    }
    k = k + 1;
  }
}
"""


def function():
    return serial_kernel(SOURCE)


def default_root(graph):
    """A deterministic, well-connected root: the max-degree vertex."""
    return max(range(graph.n), key=graph.degree)


def as_weighted(graph):
    """Coerce any CSR graph to a weighted one (deterministic weights)."""
    if isinstance(graph, graphs.WeightedCSRGraph):
        return graph
    return graphs.with_weights(graph, max_weight=MAX_WEIGHT, seed=0)


def default_delta(graph):
    """Bucket width: the average edge weight (the classic heuristic)."""
    w = as_weighted(graph)
    if not w.weights:
        return 1
    return max(1, sum(w.weights) // len(w.weights))


def make_env(graph, root=None):
    g = as_weighted(graph)
    if root is None:
        root = default_root(g)
    dist = [INF] * g.n
    dist[root] = 0
    arrays = {
        "nodes": list(g.nodes),
        "edges": list(g.edges),
        "weights": list(g.weights),
        "dist": dist,
        "done": [INF] * g.n,
    }
    scalars = {"n": g.n, "delta": default_delta(g)}
    return arrays, scalars


def reference(graph, root=None):
    """Oracle distances via a Python Dijkstra (exact integer arithmetic)."""
    g = as_weighted(graph)
    if root is None:
        root = default_root(g)
    dist = [INF] * g.n
    dist[root] = 0
    heap = [(0, root)]
    nodes, edges, weights = g.nodes, g.edges, g.weights
    while heap:
        dv, v = heapq.heappop(heap)
        if dv > dist[v]:
            continue
        for e in range(nodes[v], nodes[v + 1]):
            w = edges[e]
            alt = dv + weights[e]
            if alt < dist[w]:
                dist[w] = alt
                heapq.heappush(heap, (alt, w))
    return dist


def check(arrays, graph, root=None):
    return arrays["dist"] == reference(graph, root)


# ---------------------------------------------------------------------------
# Manually pipelined variant


def manual_pipeline():
    """2 stages + two chained RA pairs (neighbor ids and edge weights).

    The driver mirrors the serial loop nest but owns no kernel state: it
    streams every vertex's neighbor burst (nodes indirect -> edges scan)
    and weight burst (nodes indirect -> weights scan), each delimited by a
    NEXT marker, and follows the bucket/fixpoint control flow purely from
    the shared ``changed``/``remaining`` cells the update stage publishes
    at the phase barriers. The update stage owns dist/done and consumes
    the two bursts in lockstep.
    """
    Q_EN, Q_EPAIR, Q_NGH = 0, 1, 2
    Q_WN, Q_WPAIR, Q_WGT = 3, 4, 5

    b = IRBuilder(temp_prefix="%m")
    b.mov(1, dst="remaining")
    with phase_loop(b, "remaining"):
        with b.loop():
            with b.for_("v", 0, "n"):
                b.enq(Q_EN, "v")
                vp1 = b.binop("add", "v", 1)
                b.enq(Q_EN, vp1)
                b.enq_ctrl(Q_EN, Ctrl.NEXT)
                b.enq(Q_WN, "v")
                b.enq(Q_WN, vp1)
                b.enq_ctrl(Q_WN, Ctrl.NEXT)
            ch = barrier_read(b, "changed")
            ch_done = b.binop("le", ch, 0)
            with b.if_(ch_done):
                b.break_()
        b.mov(barrier_read(b, "remaining", "bucket"), dst="remaining")
    stage0 = StageProgram(0, "drive", b.finish())

    b = IRBuilder(temp_prefix="%u")
    b.mov(0, dst="k")
    b.mov(1, dst="remaining")
    with phase_loop(b, "remaining"):
        kp1 = b.binop("add", "k", 1)
        limit = b.binop("mul", kp1, "delta")
        with b.loop():
            b.mov(0, dst="changed")
            with b.for_("v", 0, "n"):
                dv = b.load("@dist", "v")
                below = b.binop("lt", dv, limit)
                fresh = b.binop("lt", dv, b.load("@done", "v"))
                proc = b.binop("and", below, fresh)
                with b.if_(proc):
                    b.store("@done", "v", dv)
                with b.loop():
                    w = b.deq(Q_NGH)
                    at_end = b.is_control(w)
                    with b.if_(at_end):
                        b.deq(Q_WGT)  # consume the aligned marker
                        b.break_()
                    wt = b.deq(Q_WGT)
                    with b.if_(proc):
                        alt = b.binop("add", dv, wt)
                        old = b.load("@dist", w)
                        better = b.binop("lt", alt, old)
                        with b.if_(better):
                            b.store("@dist", w, alt)
                            light = b.binop("lt", alt, limit)
                            with b.if_(light):
                                b.mov(1, dst="changed")
            b.write_shared("changed", "changed")
            ch = barrier_read(b, "changed")
            ch_done = b.binop("le", ch, 0)
            with b.if_(ch_done):
                b.break_()
        b.mov(0, dst="rem")
        with b.for_("u", 0, "n"):
            du = b.load("@dist", "u")
            waiting = b.binop("lt", du, b.load("@done", "u"))
            with b.if_(waiting):
                b.binop("add", "rem", 1, dst="rem")
        b.write_shared("remaining", "rem")
        b.mov(barrier_read(b, "remaining", "bucket"), dst="remaining")
        b.binop("add", "k", 1, dst="k")
    stage1 = StageProgram(1, "update", b.finish())

    edges = neighbor_chain(
        (Q_EN, Q_EPAIR, Q_NGH), labels=("v/v+1 (edges)", "edge bounds", "neighbors")
    )
    weights = neighbor_chain(
        (Q_WN, Q_WPAIR, Q_WGT),
        raid=2,
        array="@weights",
        labels=("v/v+1 (weights)", "weight bounds", "weights"),
    )
    queues, ras = edges[0] + weights[0], edges[1] + weights[1]
    return manual_program(
        NAME, function(), [stage0, stage1], queues, ras, shared={"changed", "remaining"}
    )


# ---------------------------------------------------------------------------
# Data-parallel variant


def _sum_parts(b, tid, mine, total, var, tags):
    """All-reduce one count: publish ``mine`` in ``parts[tid]`` after barrier
    ``tags[0]``, then every worker sums all parts into ``total`` between
    barriers ``tags[1]`` and ``tags[2]``."""
    b.barrier(tags[0])
    b.store("@parts", tid, mine)
    b.barrier(tags[1])
    b.mov(0, dst=total)
    with b.for_(var, 0, "nthreads"):
        part = b.load("@parts", var)
        b.binop("add", total, part, dst=total)
    b.barrier(tags[2])


def data_parallel(nthreads):
    """Vertex-striped delta-stepping: ``atomic_min`` relaxations.

    Worker t owns vertices ``v % nthreads == t`` (their ``done`` cells are
    written only by the owner); distance relaxations race benignly through
    ``atomic_min``. Per-round changed flags and per-bucket remaining
    counts flow through the ``parts`` array across double barriers, as in
    the other hand-parallelized workloads.
    """

    def worker(b, tid):
        b.mov(0, dst="k")
        b.mov(1, dst="remaining")
        with phase_loop(b, "remaining"):
            kp1 = b.binop("add", "k", 1)
            limit = b.binop("mul", kp1, "delta")
            with b.loop():
                b.mov(0, dst="my_changed")
                with b.for_("v", tid, "n", nthreads):
                    dv = b.load("@dist", "v")
                    below = b.binop("lt", dv, limit)
                    fresh = b.binop("lt", dv, b.load("@done", "v"))
                    proc = b.binop("and", below, fresh)
                    with b.if_(proc):
                        b.store("@done", "v", dv)
                        es = b.load("@nodes", "v")
                        ee = b.load("@nodes", b.binop("add", "v", 1))
                        with b.for_("e", es, ee):
                            w = b.load("@edges", "e")
                            alt = b.binop("add", dv, b.load("@weights", "e"))
                            old = b.atomic_min("@dist", w, alt)
                            better = b.binop("lt", alt, old)
                            light = b.binop("lt", alt, limit)
                            hit = b.binop("and", better, light)
                            with b.if_(hit):
                                b.mov(1, dst="my_changed")
                flags = ("dp-phase", "dp-flags", "dp-sync")
                _sum_parts(b, tid, "my_changed", "changed", "t", flags)
                ch_done = b.assign("le", ["changed", 0])
                with b.if_(ch_done):
                    b.break_()
            b.mov(0, dst="my_rem")
            with b.for_("u", tid, "n", nthreads):
                du = b.load("@dist", "u")
                waiting = b.binop("lt", du, b.load("@done", "u"))
                with b.if_(waiting):
                    b.binop("add", "my_rem", 1, dst="my_rem")
            _sum_parts(
                b, tid, "my_rem", "remaining", "t2", ("dp-bucket", "dp-rems", "dp-bucket-sync")
            )
            b.binop("add", "k", 1, dst="k")

    return dp_program(NAME, function(), nthreads, worker, ["nthreads"], ["parts"])


def make_env_dp(graph, nthreads, root=None):
    arrays, scalars = make_env(graph, root)
    arrays["parts"] = [0] * nthreads
    scalars["nthreads"] = nthreads
    return arrays, scalars
