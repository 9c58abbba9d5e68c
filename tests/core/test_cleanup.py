"""Intra-stage cleanups: dead code, empty control, copy propagation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ir
from repro.core.cleanup import (
    copy_propagate,
    cleanup_stage,
    prune_empty_control,
    remove_dead_code,
    stage_is_trivial,
)


def test_dead_assign_removed():
    body = [ir.Assign("x", "mov", [1]), ir.Store("@a", 0, 2)]
    remove_dead_code(body)
    assert [s.kind for s in body] == ["store"]


def test_dead_chain_removed_transitively():
    body = [
        ir.Assign("a", "mov", [1]),
        ir.Assign("b", "add", ["a", 1]),
        ir.Assign("c", "add", ["b", 1]),
    ]
    remove_dead_code(body)
    assert body == []


def test_dead_load_removed():
    body = [ir.Load("v", "@a", 0)]
    remove_dead_code(body)
    assert body == []


def test_effectful_kept():
    body = [ir.Deq("x", 0), ir.Prefetch("@a", 1), ir.Call(None, "f", [])]
    remove_dead_code(body)
    assert len(body) == 3


def test_live_out_respected():
    body = [ir.Assign("x", "mov", [1])]
    remove_dead_code(body, live_out=["x"])
    assert len(body) == 1


def test_handler_uses_keep_values():
    body = [ir.Assign("dones", "mov", [0]), ir.Store("@a", 0, 1)]
    handler = [ir.Assign("dones", "add", ["dones", 1])]
    remove_dead_code(body, handler_bodies=(handler,))
    assert body[0].kind == "assign"


def test_prune_empty_loops_and_ifs():
    body = [
        ir.For("i", 0, 10, 1, []),
        ir.If("c", [], []),
        ir.Loop([]),
        ir.Store("@a", 0, 1),
    ]
    prune_empty_control(body)
    assert [s.kind for s in body] == ["store"]


def test_prune_cascades():
    body = [ir.For("i", 0, 10, 1, [ir.If("c", [], [])])]
    prune_empty_control(body)
    assert body == []


def test_copy_propagation():
    stage = ir.StageProgram(
        0,
        "t",
        [
            ir.Deq("%t0", 0),
            ir.Assign("v", "mov", ["%t0"]),
            ir.Store("@a", "v", "v"),
        ],
    )
    copy_propagate(stage)
    remove_dead_code(stage.body)
    store = stage.body[-1]
    assert store.index == "%t0" and store.value == "%t0"
    assert all(s.kind != "assign" for s in stage.body)


def test_copy_propagation_skips_multidef():
    stage = ir.StageProgram(
        0,
        "t",
        [
            ir.Assign("x", "mov", [1]),
            ir.Assign("x", "mov", [2]),
            ir.Store("@a", 0, "x"),
        ],
    )
    copy_propagate(stage)
    assert stage.body[-1].value == "x"  # untouched


def test_copy_propagation_resolves_chains():
    stage = ir.StageProgram(
        0,
        "t",
        [
            ir.Deq("a", 0),
            ir.Assign("b", "mov", ["a"]),
            ir.Assign("c", "mov", ["b"]),
            ir.Store("@x", 0, "c"),
        ],
    )
    copy_propagate(stage)
    assert stage.body[-1].value == "a"


def test_stage_triviality():
    trivial = ir.StageProgram(0, "t", [ir.Assign("x", "mov", [1]), ir.Barrier()])
    real = ir.StageProgram(0, "t", [ir.Enq(0, 1)])
    handlerful = ir.StageProgram(0, "t", [], handlers={0: [ir.Break(1)]})
    assert stage_is_trivial(trivial)
    assert not stage_is_trivial(real)
    assert not stage_is_trivial(handlerful)


def test_cleanup_stage_composite():
    stage = ir.StageProgram(
        0,
        "t",
        [
            ir.Assign("dead", "mov", [9]),
            ir.For("i", 0, 4, 1, [ir.Assign("alsodead", "add", ["i", 1])]),
            ir.Store("@a", 0, 1),
        ],
    )
    cleanup_stage(stage)
    assert [s.kind for s in stage.body] == ["store"]


# -- remove_dead_code against its round-based definition ----------------------

_REGS = ["a", "b", "c", "d", "i"]
_operand = st.one_of(st.sampled_from(_REGS), st.integers(0, 3))


@st.composite
def _stmt_specs(draw, depth=0):
    kinds = ["mov", "add", "load", "read_shared", "is_control", "peek", "store", "enq"]
    if depth < 2:
        kinds += ["for", "if"]
    kind = draw(st.sampled_from(kinds))
    dst = draw(st.sampled_from(_REGS))
    if kind == "mov":
        return (kind, dst, draw(_operand))
    if kind in ("add", "store"):
        return (kind, dst, draw(_operand), draw(_operand))
    if kind in ("load", "is_control", "enq"):
        return (kind, dst, draw(_operand))
    if kind in ("read_shared", "peek"):
        return (kind, dst)
    body = draw(st.lists(_stmt_specs(depth + 1), max_size=4))
    if kind == "for":
        return (kind, dst, draw(_operand), body)
    return (kind, draw(st.sampled_from(_REGS)), body, draw(st.lists(_stmt_specs(depth + 1), max_size=3)))


def _build(specs):
    """Fresh IR for ``specs`` (regs a-d and the loop var i; multiply defined)."""
    out = []
    for spec in specs:
        kind = spec[0]
        if kind == "mov":
            out.append(ir.Assign(spec[1], "mov", [spec[2]]))
        elif kind == "add":
            out.append(ir.Assign(spec[1], "add", [spec[2], spec[3]]))
        elif kind == "load":
            out.append(ir.Load(spec[1], "@a", spec[2]))
        elif kind == "read_shared":
            out.append(ir.ReadShared(spec[1], "cell"))
        elif kind == "is_control":
            out.append(ir.IsControl(spec[1], spec[2]))
        elif kind == "peek":
            out.append(ir.Peek(spec[1], 0))
        elif kind == "store":
            out.append(ir.Store("@b", spec[2], spec[3]))
        elif kind == "enq":
            out.append(ir.Enq(1, spec[2]))
        elif kind == "for":
            out.append(ir.For(spec[1], 0, spec[2], 1, _build(spec[3])))
        else:
            out.append(ir.If(spec[1], _build(spec[2]), _build(spec[3])))
    return out


def _round_based_dce(body, live_out, handlers):
    """The definition: collect every use, drop the dead pure defs, repeat."""

    def drop(block, used):
        dropped = False
        kept = []
        for stmt in block:
            for inner in stmt.blocks():
                dropped = drop(inner, used) or dropped
            pure = stmt.kind in ("assign", "load", "read_shared", "is_control")
            if pure and stmt.defs() and not set(stmt.defs()) & used:
                dropped = True
                continue
            kept.append(stmt)
        block[:] = kept
        return dropped

    while True:
        used = set(live_out)
        for root in (body, *handlers):
            for stmt in ir.walk(root):
                used.update(stmt.uses())
        if not drop(body, used):
            return


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_stmt_specs(), max_size=8),
    st.lists(st.lists(_stmt_specs(depth=2), max_size=3), max_size=2),
    st.lists(st.sampled_from(_REGS), max_size=2),
)
def test_dead_code_matches_the_round_based_definition(body_specs, handler_specs, live_out):
    survivors = []
    for dce in (remove_dead_code, None):
        body = _build(body_specs)
        handlers = [_build(spec) for spec in handler_specs]
        tags = {id(stmt): n for n, stmt in enumerate(ir.walk(body))}
        handler_stmts = [list(ir.walk(h)) for h in handlers]
        if dce is None:
            _round_based_dce(body, live_out, handlers)
        else:
            dce(body, live_out=live_out, handler_bodies=handlers)
        assert [list(ir.walk(h)) for h in handlers] == handler_stmts  # handlers never swept
        survivors.append([tags[id(stmt)] for stmt in ir.walk(body)])
    assert survivors[0] == survivors[1]
