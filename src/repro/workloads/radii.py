"""Radii estimation (paper Sec. VI-B).

Ligra-style multi-source BFS: 64 simultaneous searches share one traversal,
each owning a bit of a 64-bit visited mask. A vertex's radius estimate is
the last round in which its mask grew; the graph's radius estimate is the
maximum. Compared to BFS, every neighbor visit does mask arithmetic on two
read-write arrays, which makes the decoupling prefetch-heavy.
"""

from ..ir import Break, Ctrl, Deq, IRBuilder, QueueSpec, StageProgram
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

NAME = "radii"

#: Number of simultaneous searches (bits in the visited masks).
K = 64

SOURCE = """
#pragma phloem
void radii(const int* restrict nodes, const int* restrict edges,
           long* restrict visited, long* restrict visited_next,
           int* restrict radii_arr, int* restrict lastpush,
           int* restrict fringe0, int* restrict fringe1,
           int n, int fringe_size_init) {
  int* restrict cur_fringe = fringe0;
  int* restrict next_fringe = fringe1;
  int fringe_size = fringe_size_init;
  int round = 1;
  while (fringe_size > 0) {
    int next_size = 0;
    for (int i = 0; i < fringe_size; i++) {
      int v = cur_fringe[i];
      long mv = visited[v];
      int edge_start = nodes[v];
      int edge_end = nodes[v + 1];
      for (int e = edge_start; e < edge_end; e++) {
        int ngh = edges[e];
        long mn = visited_next[ngh];
        long un = mn | mv;
        if (un != mn) {
          visited_next[ngh] = un;
          if (lastpush[ngh] != round) {
            lastpush[ngh] = round;
            next_fringe[next_size] = ngh;
            next_size = next_size + 1;
          }
        }
      }
    }
    for (int j = 0; j < next_size; j++) {
      int u = next_fringe[j];
      visited[u] = visited_next[u];
      radii_arr[u] = round;
    }
    int* restrict tmp = cur_fringe;
    cur_fringe = next_fringe;
    next_fringe = tmp;
    fringe_size = next_size;
    round = round + 1;
  }
}
"""


def function():
    return serial_kernel(SOURCE)


def sample_sources(graph, k=K):
    """Deterministic source sample: the k highest-degree vertices."""
    order = sorted(range(graph.n), key=lambda v: (-graph.degree(v), v))
    return order[: min(k, graph.n)]


def make_env(graph):
    n = graph.n
    sources = sample_sources(graph)
    visited = [0] * n
    for bit, s in enumerate(sources):
        visited[s] = 1 << bit
    fringe0 = [0] * (n + 1)
    for i, s in enumerate(sources):
        fringe0[i] = s
    arrays = {
        "nodes": list(graph.nodes),
        "edges": list(graph.edges),
        "visited": visited,
        "visited_next": list(visited),
        "radii_arr": [0] * n,
        "lastpush": [0] * n,
        "fringe0": fringe0,
        "fringe1": [0] * (n + 1),
    }
    scalars = {"n": n, "fringe_size_init": len(sources)}
    return arrays, scalars


def reference(graph):
    """Oracle radii via the same algorithm in Python."""
    n = graph.n
    nodes, edges = graph.nodes, graph.edges
    sources = sample_sources(graph)
    visited = [0] * n
    for bit, s in enumerate(sources):
        visited[s] = 1 << bit
    visited_next = list(visited)
    radii_arr = [0] * n
    lastpush = [0] * n
    fringe = list(sources)
    rnd = 1
    while fringe:
        nxt = []
        for v in fringe:
            mv = visited[v]
            for e in range(nodes[v], nodes[v + 1]):
                ngh = edges[e]
                un = visited_next[ngh] | mv
                if un != visited_next[ngh]:
                    visited_next[ngh] = un
                    if lastpush[ngh] != rnd:
                        lastpush[ngh] = rnd
                        nxt.append(ngh)
        for u in nxt:
            visited[u] = visited_next[u]
            radii_arr[u] = rnd
        fringe = nxt
        rnd += 1
    return radii_arr


def check(arrays, graph):
    return arrays["radii_arr"] == reference(graph)


def estimate(arrays):
    """The headline number: the estimated graph radius."""
    return max(arrays["radii_arr"])


def manual_pipeline():
    """Hand-tuned 2-stage + 2-chained-RA pipeline.

    Like the paper's best Radii decoupling, this is a *short* pipeline
    (Sec. VII-B notes Radii favors 2 stages + RAs): one scan stage drives
    the RA chain and sends per-vertex masks; the update stage does all
    read-write mask work.
    """
    Q_RA1, Q_PAIRS, Q_NGH, Q_MASK = 0, 1, 2, 3

    b = IRBuilder(temp_prefix="%m")
    b.mov("@fringe0", dst="cur_fringe")
    b.mov("@fringe1", dst="next_fringe")
    b.mov("fringe_size_init", dst="fringe_size")
    with phase_loop(b, "fringe_size"):
        with b.for_("i", 0, "fringe_size"):
            v = b.load("cur_fringe", "i")
            # Send the vertex id, not its mask: `visited` is written by the
            # update stage within the phase, so only that stage may read it
            # (the compiler's aliasing rule; here applied by hand).
            b.enq(Q_MASK, v)
            enq_bounds(b, Q_RA1, v)
        b.enq_ctrl(Q_RA1, Ctrl.DONE)
        b.enq_ctrl(Q_MASK, Ctrl.DONE)
        phase_end(b)
        swap(b, "cur_fringe", "next_fringe")
    stage0 = StageProgram(0, "scan_fringe", b.finish())

    b = IRBuilder(temp_prefix="%u")
    b.mov("@fringe1", dst="next_fringe")
    b.mov("@fringe0", dst="other")
    b.mov("fringe_size_init", dst="fringe_size")
    b.mov(1, dst="round")
    with phase_loop(b, "fringe_size"):
        b.mov(0, dst="next_size")
        with b.loop():
            v = b.deq(Q_MASK)
            mv = b.load("@visited", v)
            with b.loop():
                ngh = b.deq(Q_NGH)
                mn = b.load("@visited_next", ngh)
                un = b.binop("or", mn, mv)
                grew = b.binop("ne", un, mn)
                with b.if_(grew):
                    b.store("@visited_next", ngh, un)
                    lp = b.load("@lastpush", ngh)
                    fresh = b.binop("ne", lp, "round")
                    with b.if_(fresh):
                        b.store("@lastpush", ngh, "round")
                        push(b, ngh)
        with b.for_("j", 0, "next_size"):
            u = b.load("next_fringe", "j")
            nv = b.load("@visited_next", u)
            b.store("@visited", u, nv)
            b.store("@radii_arr", u, "round")
        b.write_shared("next_size", "next_size")
        phase_end(b)
        b.binop("add", "round", 1, dst="round")
        swap(b, "next_fringe", "other")
    stage1 = StageProgram(
        1,
        "update",
        b.finish(),
        handlers={Q_MASK: [Deq("%drain", Q_NGH), Break(1)], Q_NGH: [Break(1)]},
    )

    queues, ras = neighbor_chain((Q_RA1, Q_PAIRS, Q_NGH))
    queues.append(QueueSpec(Q_MASK, ("stage", 0), ("stage", 1), label="masks"))
    return manual_program(NAME, function(), [stage0, stage1], queues, ras, shared={"next_size"})


def data_parallel(nthreads):
    """Hand-written data-parallel Radii: atomic mask unions."""

    def worker(b, tid):
        b.mov("@fringe0", dst="cur_fringe")
        b.mov("@fringe1", dst="next_fringe")
        b.mov("fringe_size_init", dst="total")
        b.mov(1, dst="round")
        with phase_loop(b, "total"):
            b.mov(0, dst="my_size")
            my_base = b.binop("mul", tid, "cap")
            with fringe_segments(b, tid, nthreads) as v:
                mv = b.load("@visited", v)
                es = b.load("@nodes", v)
                ee = b.load("@nodes", b.binop("add", v, 1))
                with b.for_("e", es, ee):
                    ngh = b.load("@edges", "e")
                    old = b.atomic_or("@visited_next", ngh, mv)
                    un = b.binop("or", old, mv)
                    grew = b.binop("ne", un, old)
                    with b.if_(grew):
                        lp = b.load("@lastpush", ngh)
                        fresh = b.binop("ne", lp, "round")
                        with b.if_(fresh):
                            b.store("@lastpush", ngh, "round")
                            dp_push(b, my_base, ngh)
            exchange_sizes(b, tid, "dp-scatter", sync="dp-count")
            # Apply: each worker finalizes the vertices it pushed.
            with b.for_("j2", 0, "my_size"):
                slot = b.binop("add", my_base, "j2")
                u = b.load("next_fringe", slot)
                nv = b.load("@visited_next", u)
                b.store("@visited", u, nv)
                b.store("@radii_arr", u, "round")
            b.barrier("dp-sync")
            b.binop("add", "round", 1, dst="round")
            swap(b, "cur_fringe", "next_fringe")

    return dp_program(NAME, function(), nthreads, worker, ["nthreads", "cap"], SIZES)


def make_env_dp(graph, nthreads):
    arrays, scalars = make_env(graph)
    cap = graph.n + 1
    sources = arrays["fringe0"][: scalars["fringe_size_init"]]
    arrays.update(segmented_fringe(sources, nthreads, cap))
    scalars.update(nthreads=nthreads, cap=cap)
    return arrays, scalars
