"""Connected Components (paper Sec. VI-B).

Label-propagation CC in the Ligra style: every vertex starts in the fringe
with its own id as label; each phase pushes smaller labels to neighbors
until no label changes. The structure matches BFS (fringe + CSR traversal),
but the ``labels`` array is both the input to the filter and the output of
the update, so Phloem can decouple its accesses only as prefetches — the
paper observes CC gets a "slightly worse decoupling" than BFS, and this is
why.
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

NAME = "cc"

SOURCE = """
#pragma phloem
void cc(const int* restrict nodes, const int* restrict edges,
        int* restrict labels, int* restrict fringe0, int* restrict fringe1,
        int n, int fringe_size_init) {
  int* restrict cur_fringe = fringe0;
  int* restrict next_fringe = fringe1;
  int fringe_size = fringe_size_init;
  while (fringe_size > 0) {
    int next_size = 0;
    for (int i = 0; i < fringe_size; i++) {
      int v = cur_fringe[i];
      int lv = labels[v];
      int edge_start = nodes[v];
      int edge_end = nodes[v + 1];
      for (int e = edge_start; e < edge_end; e++) {
        int ngh = edges[e];
        int ln = labels[ngh];
        if (ln > lv) {
          labels[ngh] = lv;
          next_fringe[next_size] = ngh;
          next_size = next_size + 1;
        }
      }
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
    labels = list(range(graph.n))
    # A phase can push a vertex once per label improvement, so the fringe
    # needs room for up to one push per directed edge.
    cap = graph.n + graph.m + 1
    fringe0 = list(range(graph.n)) + [0] * (cap - graph.n)
    arrays = {
        "nodes": list(graph.nodes),
        "edges": list(graph.edges),
        "labels": labels,
        "fringe0": fringe0,
        "fringe1": [0] * cap,
    }
    scalars = {"n": graph.n, "fringe_size_init": graph.n}
    return arrays, scalars


def reference(graph):
    """Oracle labels: min vertex id per connected component."""
    labels = list(range(graph.n))
    fringe = list(range(graph.n))
    nodes, edges = graph.nodes, graph.edges
    while fringe:
        nxt = []
        for v in fringe:
            lv = labels[v]
            for e in range(nodes[v], nodes[v + 1]):
                w = edges[e]
                if labels[w] > lv:
                    labels[w] = lv
                    nxt.append(w)
        fringe = nxt
    return labels


def check(arrays, graph):
    return arrays["labels"] == reference(graph)


def manual_pipeline():
    """Hand-tuned pipeline: fringe scan -> chained RAs -> label prefetch ->
    update, with per-vertex NEXT markers and phase counts from the shared
    fringe size (no DONE traffic at all — a hand optimization).

    The vertex id travels to the update stage, which reads ``labels[v]``
    itself: forwarding the label would be *correct* for CC (monotone), but
    stale labels inflate the fringe badly on high-diameter graphs.
    """
    Q_RA1, Q_PAIRS, Q_NGH, Q_UPD, Q_LAB = 0, 1, 2, 3, 4

    b = IRBuilder(temp_prefix="%m")
    b.mov("@fringe0", dst="cur_fringe")
    b.mov("@fringe1", dst="next_fringe")
    b.mov("fringe_size_init", dst="fringe_size")
    with phase_loop(b, "fringe_size"):
        with b.for_("i", 0, "fringe_size"):
            v = b.load("cur_fringe", "i")
            b.enq(Q_LAB, v)
            enq_bounds(b, Q_RA1, v)
        phase_end(b)
        swap(b, "cur_fringe", "next_fringe")
    stage0 = StageProgram(0, "scan_fringe", b.finish())

    # Prefetch stage: warms labels[ngh] a queue-depth ahead of the update.
    b = IRBuilder(temp_prefix="%p")
    b.mov("fringe_size_init", dst="fringe_size")
    with phase_loop(b, "fringe_size"):
        with b.for_("i", 0, "fringe_size"):
            with b.loop():
                ngh = b.deq(Q_NGH)
                b.prefetch("@labels", ngh)
                b.enq(Q_UPD, ngh)
        phase_end(b)
    stage1 = StageProgram(
        1,
        "prefetch_labels",
        b.finish(),
        handlers={Q_NGH: [EnqCtrl(Q_UPD, Ctrl(Ctrl.NEXT)), Break(1)]},
    )

    b = IRBuilder(temp_prefix="%u")
    b.mov("@fringe1", dst="next_fringe")
    b.mov("@fringe0", dst="other")
    b.mov("fringe_size_init", dst="fringe_size")
    with phase_loop(b, "fringe_size"):
        b.mov(0, dst="next_size")
        with b.for_("i", 0, "fringe_size"):
            v = b.deq(Q_LAB)
            lv = b.load("@labels", v)
            with b.loop():  # neighbors until NEXT
                ngh = b.deq(Q_UPD)
                ln = b.load("@labels", ngh)
                better = b.binop("gt", ln, lv)
                with b.if_(better):
                    b.store("@labels", ngh, lv)
                    push(b, ngh)
        b.write_shared("next_size", "next_size")
        phase_end(b)
        swap(b, "next_fringe", "other")
    stage2 = StageProgram(2, "update", b.finish(), handlers={Q_UPD: [Break(1)]})

    queues, ras = neighbor_chain((Q_RA1, Q_PAIRS, Q_NGH))
    queues += [
        QueueSpec(Q_UPD, ("stage", 1), ("stage", 2), label="neighbors'"),
        QueueSpec(Q_LAB, ("stage", 0), ("stage", 2), label="vertices"),
    ]
    stages = [stage0, stage1, stage2]
    return manual_program(NAME, function(), stages, queues, ras, shared={"next_size"})


def data_parallel(nthreads):
    """Hand-written data-parallel CC (vertex-partitioned label propagation)."""

    def worker(b, tid):
        b.mov("@fringe0", dst="cur_fringe")
        b.mov("@fringe1", dst="next_fringe")
        b.mov("fringe_size_init", dst="total")
        with phase_loop(b, "total"):
            b.mov(0, dst="my_size")
            my_base = b.binop("mul", tid, "cap")
            with fringe_segments(b, tid, nthreads) as v:
                lv = b.load("@labels", v)
                es = b.load("@nodes", v)
                ee = b.load("@nodes", b.binop("add", v, 1))
                with b.for_("e", es, ee):
                    ngh = b.load("@edges", "e")
                    old = b.atomic_min("@labels", ngh, lv)
                    better = b.binop("gt", old, lv)
                    with b.if_(better):
                        dp_push(b, my_base, ngh)
            exchange_sizes(b, tid, "dp-phase")
            swap(b, "cur_fringe", "next_fringe")

    return dp_program(NAME, function(), nthreads, worker, ["nthreads", "cap"], SIZES)


def make_env_dp(graph, nthreads):
    arrays, scalars = make_env(graph)
    cap = graph.n + graph.m + 1
    arrays.update(segmented_fringe(range(graph.n), nthreads, cap))
    scalars.update(nthreads=nthreads, cap=cap)
    return arrays, scalars
