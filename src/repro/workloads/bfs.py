"""Breadth-First Search (paper Sec. II, Fig. 1/2).

Provides the four variants the evaluation compares:

* ``SOURCE`` — the serial mini-C kernel (the paper's Fig. 2 left, with the
  CSR struct flattened into restrict pointer parameters);
* :func:`reference` — a pure-Python oracle;
* :func:`data_parallel` — a PBFS/Ligra-style hand-written data-parallel
  variant (vertex-partitioned, benign races on distances, per-thread
  private next-fringe segments, double-barrier phase protocol);
* :func:`manual_pipeline` — the hand-optimized Pipette pipeline (the
  paper's "Manually pipelined" bars): fringe scan feeding two chained RAs
  (nodes indirect -> edges scan), a distance-prefetch stage, and an update
  stage, all using control-value handlers.
"""

from collections import deque

from ..ir import Break, Ctrl, Enq, IRBuilder, QueueSpec, StageProgram
from .protocol import (
    SIZES,
    dp_program,
    dp_push,
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

INT_MAX = 2**31 - 1

NAME = "bfs"

SOURCE = """
#pragma phloem
void bfs(const int* restrict nodes, const int* restrict edges,
         int* restrict distances, int* restrict fringe0, int* restrict fringe1,
         int n, int fringe_size_init) {
  int* restrict cur_fringe = fringe0;
  int* restrict next_fringe = fringe1;
  int fringe_size = fringe_size_init;
  int cur_dist = 0;
  while (fringe_size > 0) {
    int next_size = 0;
    for (int i = 0; i < fringe_size; i++) {
      int v = cur_fringe[i];
      int edge_start = nodes[v];
      int edge_end = nodes[v + 1];
      for (int e = edge_start; e < edge_end; e++) {
        int ngh = edges[e];
        int old_dist = distances[ngh];
        if (old_dist > cur_dist + 1) {
          distances[ngh] = cur_dist + 1;
          next_fringe[next_size] = ngh;
          next_size = next_size + 1;
        }
      }
    }
    int* restrict tmp = cur_fringe;
    cur_fringe = next_fringe;
    next_fringe = tmp;
    fringe_size = next_size;
    cur_dist = cur_dist + 1;
  }
}
"""


def function():
    """The lowered serial kernel (cached)."""
    return serial_kernel(SOURCE)


def default_root(graph):
    """A deterministic, well-connected root: the max-degree vertex."""
    return max(range(graph.n), key=graph.degree)


def make_env(graph, root=None):
    """Arrays/scalars binding for one run on ``graph``."""
    if root is None:
        root = default_root(graph)
    distances = [INT_MAX] * graph.n
    distances[root] = 0
    fringe0 = [0] * (graph.n + 1)
    fringe0[0] = root
    arrays = {
        "nodes": list(graph.nodes),
        "edges": list(graph.edges),
        "distances": distances,
        "fringe0": fringe0,
        "fringe1": [0] * (graph.n + 1),
    }
    scalars = {"n": graph.n, "fringe_size_init": 1}
    return arrays, scalars


def reference(graph, root=None):
    """Oracle distances via a Python BFS."""
    if root is None:
        root = default_root(graph)
    dist = [INT_MAX] * graph.n
    dist[root] = 0
    queue = deque([root])
    nodes, edges = graph.nodes, graph.edges
    while queue:
        v = queue.popleft()
        nd = dist[v] + 1
        for e in range(nodes[v], nodes[v + 1]):
            w = edges[e]
            if dist[w] > nd:
                dist[w] = nd
                queue.append(w)
    return dist


def check(arrays, graph, root=None):
    """Validate a run's output against the oracle."""
    return arrays["distances"] == reference(graph, root)


# ---------------------------------------------------------------------------
# Manually pipelined variant (the paper's hand-tuned Pipette code)


def manual_pipeline():
    """Hand-written 3-stage + 2-chained-RA pipeline with CV handlers."""
    Q_RA1_IN, Q_PAIRS, Q_NGH, Q_UPD = 0, 1, 2, 3

    # Stage 0: scan the fringe, drive the RA chain with v and v+1.
    b = IRBuilder(temp_prefix="%m")
    b.mov("@fringe0", dst="cur_fringe")
    b.mov("@fringe1", dst="next_fringe")
    b.mov("fringe_size_init", dst="fringe_size")
    with phase_loop(b, "fringe_size"):
        with b.for_("i", 0, "fringe_size"):
            v = b.load("cur_fringe", "i")
            b.enq(Q_RA1_IN, v)
            vp1 = b.binop("add", v, 1)
            b.enq(Q_RA1_IN, vp1)
        b.enq_ctrl(Q_RA1_IN, Ctrl.DONE)
        phase_end(b)
        swap(b, "cur_fringe", "next_fringe")
    stage0 = StageProgram(0, "scan_fringe", b.finish())

    # Stage 1: prefetch neighbor distances, forward the neighbor stream.
    b = IRBuilder(temp_prefix="%p")
    b.mov("fringe_size_init", dst="fringe_size")
    with phase_loop(b, "fringe_size"):
        with b.loop():
            ngh = b.deq(Q_NGH)
            b.prefetch("@distances", ngh)
            b.enq(Q_UPD, ngh)
        phase_end(b)
    stage1 = StageProgram(
        1,
        "prefetch_dist",
        b.finish(),
        handlers={Q_NGH: [Enq(Q_UPD, "%ctrl"), Break(1)]},
    )

    # Stage 2: authoritative distance check + update, builds the next fringe.
    b = IRBuilder(temp_prefix="%u")
    b.mov("@fringe1", dst="next_fringe")
    b.mov("@fringe0", dst="other_fringe")
    b.mov("fringe_size_init", dst="fringe_size")
    b.mov(0, dst="cur_dist")
    with phase_loop(b, "fringe_size"):
        b.mov(0, dst="next_size")
        nd = b.binop("add", "cur_dist", 1)
        with b.loop():
            ngh = b.deq(Q_UPD)
            old = b.load("@distances", ngh)
            better = b.binop("gt", old, nd)
            with b.if_(better):
                b.store("@distances", ngh, nd)
                push(b, ngh)
        b.write_shared("next_size", "next_size")
        phase_end(b)
        b.binop("add", "cur_dist", 1, dst="cur_dist")
        swap(b, "next_fringe", "other_fringe")
    stage2 = StageProgram(2, "update", b.finish(), handlers={Q_UPD: [Break(1)]})

    queues, ras = neighbor_chain((Q_RA1_IN, Q_PAIRS, Q_NGH))
    queues.append(QueueSpec(Q_UPD, ("stage", 1), ("stage", 2), label="neighbors'"))
    stages = [stage0, stage1, stage2]
    return manual_program(NAME, function(), stages, queues, ras, shared={"next_size"})


# ---------------------------------------------------------------------------
# Data-parallel variant (PBFS/Ligra-style port)


def data_parallel(nthreads):
    """Hand-written data-parallel BFS over ``nthreads`` worker threads.

    Vertex-partitioned: worker t processes elements ``j % T == t`` of every
    per-thread fringe segment, races benignly on ``distances`` (all writers
    store the same level), and appends discoveries to its private segment
    of ``next_fringe``. Sizes flow through the ``sizes`` array across a
    double barrier.
    """

    def worker(b, tid):
        b.mov("@fringe0", dst="cur_fringe")
        b.mov("@fringe1", dst="next_fringe")
        b.mov(0, dst="cur_dist")
        b.mov("fringe_size_init", dst="total")
        # Segment 0 initially holds the root (size saved by make_env_dp).
        with phase_loop(b, "total"):
            b.mov(0, dst="my_size")
            nd = b.binop("add", "cur_dist", 1)
            my_base = b.binop("mul", tid, "cap")
            with fringe_segments(b, tid, nthreads) as v:
                es = b.load("@nodes", v)
                ee = b.load("@nodes", b.binop("add", v, 1))
                with b.for_("e", es, ee):
                    ngh = b.load("@edges", "e")
                    # PBFS-style CAS: atomically claim the vertex, push
                    # only on success (work-efficient, no duplicates).
                    old = b.atomic_min("@distances", ngh, nd)
                    better = b.binop("gt", old, nd)
                    with b.if_(better):
                        dp_push(b, my_base, ngh)
            exchange_sizes(b, tid, "dp-phase")
            b.binop("add", "cur_dist", 1, dst="cur_dist")
            swap(b, "cur_fringe", "next_fringe")

    return dp_program(NAME, function(), nthreads, worker, ["nthreads", "cap"], SIZES)


def make_env_dp(graph, nthreads, root=None):
    """Environment for the data-parallel variant (segmented fringes)."""
    if root is None:
        root = default_root(graph)
    arrays, scalars = make_env(graph, root)
    cap = graph.n + 1
    arrays.update(segmented_fringe([root], nthreads, cap))
    scalars.update(nthreads=nthreads, cap=cap)
    return arrays, scalars
