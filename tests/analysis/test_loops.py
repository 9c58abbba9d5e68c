"""Loop-nest indexing and phase-loop detection."""

from repro import ir
from repro.analysis.loops import estimated_trip_weight, find_phase_loop
from repro.frontend import compile_source
from repro.ir.stmts import loop_chain, walk_with_depth
from repro.workloads import bfs


def _depth_of(body, target):
    return next(depth for stmt, depth in walk_with_depth(body) if stmt is target)


def test_depths():
    inner = ir.Assign("x", "mov", [0])
    body = [ir.Loop([ir.For("i", 0, 4, 1, [inner])])]
    assert _depth_of(body, inner) == 2
    assert loop_chain(body, inner)[-1].kind == "for"
    assert _depth_of(body, body[0]) == 0
    assert loop_chain(body, body[0]) == ()


def test_if_does_not_add_depth():
    inner = ir.Assign("x", "mov", [0])
    body = [ir.For("i", 0, 4, 1, [ir.If("c", [inner], [])])]
    assert _depth_of(body, inner) == 1
    assert len(loop_chain(body, inner)) == 1


def test_phase_loop_found_in_bfs():
    f = compile_source(bfs.SOURCE)
    loop = find_phase_loop(f.body)
    assert loop is not None and loop.kind == "loop"


def test_no_phase_loop_in_counted_kernel():
    src = """
    void k(const int* restrict a, int* restrict out, int n) {
      for (int i = 0; i < n; i++) { out[i] = a[i]; }
    }
    """
    assert find_phase_loop(compile_source(src).body) is None


def test_phase_loop_requires_nest():
    src = """
    void k(int* restrict out, int n) {
      while (n > 0) { out[n] = n; n = n - 1; }
    }
    """
    assert find_phase_loop(compile_source(src).body) is None


def test_trip_weight_grows_exponentially():
    assert estimated_trip_weight(3) == 8 * estimated_trip_weight(2)


def test_trip_weight_nested_edge_cases():
    # Depth 0 (outside any loop) is weight 1, custom bases compound per
    # level, and the result is always a float.
    assert estimated_trip_weight(0) == 1.0
    assert estimated_trip_weight(2, base=4) == 16.0
    assert type(estimated_trip_weight(1)) is float


def test_two_top_level_while_loops_are_not_a_phase():
    inner = [ir.For("i", 0, 4, 1, [ir.Assign("x", "mov", [0])])]
    body = [ir.Loop(list(inner)), ir.Loop(list(inner))]
    assert find_phase_loop(body) is None


def test_phase_loop_nest_found_under_if():
    # The shallow walk looks through Ifs for the work nest, but not into
    # nested loops.
    nest = ir.If("c", [ir.For("i", 0, 4, 1, [ir.Assign("x", "mov", [0])])], [])
    loop = ir.Loop([nest])
    assert find_phase_loop([loop]) is loop
