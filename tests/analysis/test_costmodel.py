"""Decoupling-point ranking (paper Sec. V: the BFS ordering is prescribed)."""

import pytest

from repro.analysis.costmodel import rank_decouple_points
from repro.frontend import compile_source
from repro.taco import mtmul_kernel, residual_kernel, sddmm_kernel, spmv_kernel
from repro.workloads import ALL_BENCHMARKS, bfs, cc
from tests.test_compiler_fuzz import GARDENIA_CORPUS


def test_bfs_ranking_matches_paper():
    """distances > edges > nodes(grouped) > fringe, exactly Sec. V's story."""
    points = rank_decouple_points(compile_source(bfs.SOURCE))
    order = [p.cls for p in points]
    assert order == ["@distances", "@edges", "@nodes", "cur_fringe"]


def test_nearby_accesses_grouped():
    points = rank_decouple_points(compile_source(bfs.SOURCE))
    nodes = next(p for p in points if p.cls == "@nodes")
    assert len(nodes.loads) == 2  # nodes[v] and nodes[v+1] ride one point


def test_value_mode_follows_aliasing():
    points = {p.cls: p for p in rank_decouple_points(compile_source(bfs.SOURCE))}
    assert points["@edges"].value_mode  # read-only: forward the value
    assert not points["@distances"].value_mode  # written: prefetch only


def test_cc_labels_prefetch_mode():
    points = {p.cls: p for p in rank_decouple_points(compile_source(cc.SOURCE))}
    assert not points["@labels"].value_mode


def test_inner_loop_outweighs_outer():
    src = """
    void k(const int* restrict a, const int* restrict b, int* restrict out, int n) {
      for (int i = 0; i < n; i++) {
        int x = a[i];
        for (int j = 0; j < n; j++) {
          out[i] = out[i] + b[j];
        }
      }
    }
    """
    points = rank_decouple_points(compile_source(src))
    assert points[0].cls == "@out" or points[0].depth == 2
    classes = [p.cls for p in points]
    assert classes.index("@b") < classes.index("@a")


def _pinned_sources():
    sources = {name: ALL_BENCHMARKS[name].SOURCE for name in ALL_BENCHMARKS}
    sources.update(("gardenia/" + name, src) for name, src in GARDENIA_CORPUS.items())
    for maker in (mtmul_kernel, residual_kernel, sddmm_kernel, spmv_kernel):
        sources["taco/" + maker.__name__[: -len("_kernel")]] = maker().source
    return sources


#: The full ranking of every kernel the compiler ships or fuzzes, as
#: ``(class, kind, loop depth, group size)`` best first. Scores are left
#: out on purpose: a re-pricing that keeps every order passes.
RANK_PINS = {
    "bc": [
        ("@sigma", "indirect", 2, 3), ("@sigma", "indirect", 2, 2), ("@dist", "indirect", 2, 1),
        ("@dist", "indirect", 2, 1), ("@delta", "indirect", 2, 1), ("@edges", "indirect", 2, 2),
        ("@nodes", "indirect", 1, 2), ("@delta", "indirect", 1, 2), ("@nodes", "indirect", 1, 2),
        ("@dist", "indirect", 1, 1), ("@dist", "indirect", 1, 1), ("@sigma", "indirect", 1, 1),
        ("@centrality", "indirect", 1, 1), ("@order", "other", 1, 1), ("@order", "other", 1, 1),
    ],
    "bfs": [
        ("@distances", "indirect", 3, 1), ("@edges", "sequential", 3, 1),
        ("@nodes", "indirect", 2, 2), ("cur_fringe", "sequential", 2, 1),
    ],
    "cc": [
        ("@labels", "indirect", 3, 1), ("@edges", "sequential", 3, 1),
        ("@nodes", "indirect", 2, 2), ("@labels", "indirect", 2, 1),
        ("cur_fringe", "sequential", 2, 1),
    ],
    "pr": [
        ("@nghsum", "indirect", 3, 1), ("@edges", "sequential", 3, 1),
        ("@nodes", "sequential", 2, 2), ("@degree", "sequential", 2, 1),
        ("@rank", "sequential", 2, 1), ("@nghsum", "sequential", 2, 1),
    ],
    "prd": [
        ("@nghsum", "indirect", 3, 1), ("@edges", "sequential", 3, 1),
        ("@nodes", "indirect", 2, 2), ("@degree", "indirect", 2, 1), ("@delta", "indirect", 2, 1),
        ("cur_fringe", "sequential", 2, 1), ("@nghsum", "sequential", 2, 1),
        ("@rank", "sequential", 2, 1),
    ],
    "radii": [
        ("@visited_next", "indirect", 3, 1), ("@lastpush", "indirect", 3, 1),
        ("@edges", "sequential", 3, 1), ("@nodes", "indirect", 2, 2),
        ("@visited", "indirect", 2, 1), ("@visited_next", "indirect", 2, 1),
        ("cur_fringe", "sequential", 2, 1), ("next_fringe", "sequential", 2, 1),
    ],
    "spmm": [
        ("@a_crd", "indirect", 3, 1), ("@bt_crd", "indirect", 3, 1), ("@a_val", "indirect", 3, 1),
        ("@bt_val", "indirect", 3, 1), ("@bt_pos", "sequential", 2, 2),
        ("@a_pos", "sequential", 1, 2),
    ],
    "spmv": [
        ("@x", "indirect", 2, 1), ("@crd", "sequential", 2, 1), ("@val", "sequential", 2, 1),
        ("@pos", "sequential", 1, 2),
    ],
    "sssp": [
        ("@dist", "indirect", 4, 1), ("@edges", "sequential", 4, 1),
        ("@weights", "sequential", 4, 1), ("@nodes", "sequential", 3, 2),
        ("@dist", "sequential", 3, 1), ("@done", "sequential", 3, 1),
        ("@dist", "sequential", 2, 1), ("@done", "sequential", 2, 1),
    ],
    "tc": [
        ("@edges", "indirect", 3, 1), ("@edges", "indirect", 3, 1), ("@nodes", "indirect", 2, 2),
        ("@edges", "sequential", 2, 1), ("@nodes", "sequential", 1, 2),
    ],
    "gardenia/bc_claim": [
        ("@out", "indirect", 1, 1), ("@out", "indirect", 1, 1), ("@idx", "indirect", 1, 1),
        ("@a", "sequential", 1, 1),
    ],
    "gardenia/pr_push": [
        ("@out", "indirect", 1, 1), ("@a", "indirect", 1, 1), ("@idx", "sequential", 1, 2),
        ("@a", "sequential", 1, 1),
    ],
    "gardenia/spmv_rows": [
        ("@a", "sequential", 2, 1), ("@idx", "sequential", 2, 1), ("@a", "sequential", 1, 1),
        ("@idx", "sequential", 1, 1),
    ],
    "gardenia/sssp_relax": [
        ("@out", "indirect", 2, 1), ("@idx", "sequential", 2, 1), ("@a", "sequential", 2, 1),
        ("@out", "sequential", 2, 1), ("@a", "sequential", 1, 1), ("@idx", "sequential", 1, 1),
    ],
    "gardenia/tc_merge": [
        ("@idx", "indirect", 2, 1), ("@a", "indirect", 2, 1), ("@a", "sequential", 1, 1),
        ("@idx", "sequential", 1, 1), ("@out", "sequential", 0, 1),
    ],
    "taco/mtmul": [
        ("@y", "indirect", 2, 1), ("@A_crd", "sequential", 2, 1), ("@A_val", "sequential", 2, 1),
        ("@z", "indirect", 1, 1), ("@A_pos", "sequential", 1, 2), ("@x", "sequential", 1, 1),
    ],
    "taco/residual": [
        ("@x", "indirect", 2, 1), ("@A_crd", "sequential", 2, 1), ("@A_val", "sequential", 2, 1),
        ("@A_pos", "sequential", 1, 2), ("@b", "sequential", 1, 1),
    ],
    "taco/sddmm": [
        ("@D", "indirect", 3, 1), ("@C", "other", 3, 1), ("@B_crd", "sequential", 2, 1),
        ("@B_val", "sequential", 2, 1), ("@B_pos", "sequential", 1, 2),
    ],
    "taco/spmv": [
        ("@x", "indirect", 2, 1), ("@A_crd", "sequential", 2, 1), ("@A_val", "sequential", 2, 1),
        ("@A_pos", "sequential", 1, 2),
    ],
}


@pytest.mark.parametrize("name", sorted(RANK_PINS))
def test_ranking_order_is_pinned(name):
    points = rank_decouple_points(compile_source(_pinned_sources()[name]))
    assert [(p.cls, p.kind, p.depth, len(p.loads)) for p in points] == RANK_PINS[name]


def test_ranking_pins_cover_every_kernel():
    assert sorted(RANK_PINS) == sorted(_pinned_sources())
