"""Statement node invariants: uses/defs/blocks/clone for every kind."""

import pytest

from repro import ir
from repro.diag import Span
from repro.ir.stmts import Stmt, substitute_uses


def _spanned(stmt, line):
    stmt.span = Span(line, 2)
    return stmt


#: One instance of every statement kind: (factory, uses(), defs(), names of
#: the fields blocks() returns, canonical text). Compound kinds carry nested
#: bodies; every statement, nested ones included, carries a span.
KINDS = [
    (lambda: ir.Assign("x", "add", ["a", 3]), ("a",), ("x",), (), ["assign s:x s:add [s:a,i:3]"]),
    (lambda: ir.Load("v", "ptr", "i"), ("ptr", "i"), ("v",), (), ["load s:v s:ptr s:i"]),
    (lambda: ir.Store("@arr", "i", "v"), ("i", "v"), (), (), ["store s:@arr s:i s:v"]),
    (lambda: ir.Prefetch("@a", "i"), ("i",), (), (), ["prefetch s:@a s:i"]),
    (lambda: ir.Enq(1, "v"), ("v",), (), (), ["enq i:1 s:v"]),
    (lambda: ir.EnqCtrl(1, ir.Ctrl("NEXT")), (), (), (), ["enq_ctrl i:1 ctrl:NEXT"]),
    (lambda: ir.Deq("x", 2), (), ("x",), (), ["deq s:x i:2"]),
    (lambda: ir.Peek("y", 2), (), ("y",), (), ["peek s:y i:2"]),
    (lambda: ir.IsControl("c", "v"), ("v",), ("c",), (), ["is_control s:c s:v"]),
    (
        lambda: ir.For(
            "i", "lo", "n", "k",
            [_spanned(ir.Assign("x", "mov", ["i"]), 4), _spanned(ir.Store("@o", "i", "x"), 5)],
        ),
        ("lo", "n", "k"),
        ("i",),
        ("body",),
        ["for s:i s:lo s:n s:k", " assign s:x s:mov [s:i]", " store s:@o s:i s:x"],
    ),
    (
        lambda: ir.Loop(
            [_spanned(ir.Deq("d", 0), 4), _spanned(ir.If("d", [_spanned(ir.Break(), 6)]), 5)]
        ),
        (),
        (),
        ("body",),
        ["loop", " deq s:d i:0", " if s:d", "  break i:1"],
    ),
    (
        lambda: ir.If(
            "c",
            [_spanned(ir.Assign("y", "add", ["c", 1]), 4)],
            [_spanned(ir.Continue(), 6)],
        ),
        ("c",),
        (),
        ("then_body", "else_body"),
        ["if s:c", " assign s:y s:add [s:c,i:1]", "else", " continue"],
    ),
    (lambda: ir.Break(2), (), (), (), ["break i:2"]),
    (lambda: ir.Continue(), (), (), (), ["continue"]),
    (lambda: ir.Barrier("phase"), (), (), (), ["barrier s:phase"]),
    (lambda: ir.ReadShared("y", "total"), (), ("y",), (), ["read_shared s:y s:total"]),
    (lambda: ir.WriteShared("total", "x"), ("x",), (), (), ["write_shared s:total s:x"]),
    (
        lambda: ir.Call("r", "work", ["x", 1, "@a"]),
        ("x",),
        ("r",),
        (),
        ["call s:r s:work [s:x,i:1,s:@a]"],
    ),
    (
        lambda: ir.AtomicRMW("old", "add", "@a", "i", "v"),
        ("i", "v"),
        ("old",),
        (),
        ["atomic_rmw s:old s:add s:@a s:i s:v"],
    ),
    (lambda: ir.EnqDist(4, "v", "r"), ("v", "r"), (), (), ["enq_dist i:4 s:v s:r"]),
    (lambda: ir.EnqCtrlDist(1, ir.Ctrl("DONE")), (), (), (), ["enq_ctrl_dist i:1 ctrl:DONE"]),
    (lambda: ir.Comment("note"), (), (), (), ["comment s:note"]),
]


def _make(case):
    return _spanned(case[0](), 3)


def _kind_id(case):
    return case[0]().kind


def _function(stmt):
    return ir.Function("k", [], {}, [stmt])


def _canonical(stmt):
    text = ir.canonical_function(_function(stmt)).splitlines()
    return [line[1:] for line in text[text.index("body") + 1 :]]


def _fields(stmt, bodies):
    """(name, value) of every operand field: the slots minus the bodies."""
    return [(name, getattr(stmt, name)) for name in type(stmt).__slots__ if name not in bodies]


def _objects(stmt):
    """id() of every list and statement reachable from ``stmt``."""
    found = {id(stmt)}
    for name in type(stmt).__slots__:
        value = getattr(stmt, name)
        if type(value) is list:
            found.add(id(value))
            for item in value:
                if isinstance(item, Stmt):
                    found |= _objects(item)
    return found


def test_the_table_covers_every_kind():
    assert sorted(_kind_id(case) for case in KINDS) == sorted(
        cls.kind for cls in Stmt.__subclasses__()
    )


@pytest.mark.parametrize("case", KINDS, ids=_kind_id)
def test_every_kind_reads_writes_owns_and_serializes_as_declared(case):
    _, uses, defs, bodies, lines = case
    stmt = _make(case)
    assert tuple(stmt.uses()) == uses
    assert stmt.defs() == defs
    assert [id(block) for block in stmt.blocks()] == [id(getattr(stmt, f)) for f in bodies]
    assert _canonical(stmt) == lines


@pytest.mark.parametrize("case", KINDS, ids=_kind_id)
def test_blocks_are_the_declared_bodies(case):
    """``blocks()`` is hand-written on the compound kinds (``walk`` calls it
    on every statement); the table pins it to the fields named here, which
    must be the declared ``BODIES``. Bodies, reads and write are all slots."""
    cls = type(_make(case))
    assert cls.BODIES == case[3]
    declared = set(cls.READS) | set(cls.BODIES) | ({cls.WRITES} - {None})
    assert declared <= set(cls.__slots__)


@pytest.mark.parametrize("case", KINDS, ids=_kind_id)
def test_every_kind_clones_deeply_with_its_span(case):
    stmt = _make(case)
    copy = stmt.clone()
    assert type(copy) is type(stmt)
    assert ir.fingerprint(_function(copy)) == ir.fingerprint(_function(stmt))
    assert not _objects(copy) & _objects(stmt)
    pairs = list(zip(ir.walk([stmt]), ir.walk([copy])))
    assert len(pairs) == ir.count_stmts([stmt]) == ir.count_stmts([copy])
    for old, new in pairs:
        assert new.span == old.span and new.span is not None


@pytest.mark.parametrize("case", KINDS, ids=_kind_id)
def test_substitute_uses_rewrites_exactly_the_reported_uses(case):
    bodies = case[3]
    stmt = _make(case)
    before = _fields(stmt, bodies)
    used = stmt.uses()
    # Every register-shaped string in an operand field, read or not.
    registers = set()
    for _, value in before:
        for item in value if type(value) is list else [value]:
            if ir.is_reg(item):
                registers.add(item)
    mapping = {reg: reg + "_renamed" for reg in registers}
    substitute_uses([stmt], mapping)
    assert tuple(stmt.uses()) == tuple(mapping[reg] for reg in used)
    replaced = []
    for (name, old), (_, new) in zip(before, _fields(stmt, bodies)):
        if type(old) is list:
            replaced += [a for a, b in zip(old, new) if a != b]
        elif old != new:
            replaced.append(old)
    assert sorted(replaced) == sorted(used)


def test_assign_uses_defs():
    s = ir.Assign("x", "add", ["a", 3])
    assert list(s.uses()) == ["a"]
    assert s.defs() == ("x",)


def test_assign_rejects_bad_op():
    with pytest.raises(ValueError):
        ir.Assign("x", "frobnicate", ["a"])


def test_assign_rejects_bad_arity():
    with pytest.raises(ValueError):
        ir.Assign("x", "add", ["a"])


def test_load_uses_pointer_register():
    direct = ir.Load("v", "@arr", "i")
    via_ptr = ir.Load("v", "ptr", "i")
    assert "i" in direct.uses() and "@arr" not in direct.uses()
    assert set(via_ptr.uses()) == {"ptr", "i"}
    assert direct.defs() == ("v",)


def test_store_uses():
    s = ir.Store("@arr", "i", "v")
    assert set(s.uses()) == {"i", "v"}
    assert s.defs() == ()


def test_prefetch_uses():
    assert set(ir.Prefetch("@a", "i").uses()) == {"i"}


def test_queue_ops():
    assert list(ir.Enq(1, "v").uses()) == ["v"]
    assert ir.Enq(1, 7).uses() == ()
    assert ir.Deq("x", 2).defs() == ("x",)
    assert ir.Peek("x", 2).defs() == ("x",)
    assert list(ir.IsControl("c", "v").uses()) == ["v"]


def test_enq_ctrl_holds_ctrl():
    s = ir.EnqCtrl(3, ir.Ctrl("NEXT"))
    assert s.ctrl == ir.Ctrl("NEXT")
    assert s.clone().ctrl == s.ctrl


def test_for_structure():
    body = [ir.Assign("x", "mov", [1])]
    loop = ir.For("i", 0, "n", 1, body)
    assert loop.defs() == ("i",)
    assert list(loop.uses()) == ["n"]
    assert loop.blocks() == (body,)


def test_if_blocks():
    s = ir.If("c", [ir.Break()], [ir.Continue()])
    assert list(s.uses()) == ["c"]
    assert len(s.blocks()) == 2


def test_break_levels():
    assert ir.Break().levels == 1
    assert ir.Break(2).clone().levels == 2


def test_atomic_rmw():
    s = ir.AtomicRMW("old", "add", "@a", "i", "v")
    assert set(s.uses()) == {"i", "v"}
    assert s.defs() == ("old",)
    with pytest.raises(ValueError):
        ir.AtomicRMW("old", "xor", "@a", "i", "v")


def test_atomic_rmw_no_dst():
    s = ir.AtomicRMW(None, "add", "@a", "i", "v")
    assert s.defs() == ()


def test_enq_dist():
    s = ir.EnqDist(4, "v", "r")
    assert set(s.uses()) == {"v", "r"}


def test_shared_cells_stmts():
    w = ir.WriteShared("total", "x")
    r = ir.ReadShared("y", "total")
    assert list(w.uses()) == ["x"]
    assert r.defs() == ("y",)


def test_clone_is_deep():
    inner = ir.Assign("x", "mov", [1])
    loop = ir.Loop([ir.If("c", [inner], [])])
    copy = loop.clone()
    copy.body[0].then_body[0].args[0] = 99
    assert inner.args[0] == 1


def test_walk_visits_nested():
    body = [
        ir.For("i", 0, 10, 1, [ir.If("c", [ir.Assign("x", "mov", [1])], [ir.Break()])]),
        ir.Barrier(),
    ]
    kinds = [s.kind for s in ir.walk(body)]
    assert kinds == ["for", "if", "assign", "break", "barrier"]


def test_walk_with_depth():
    body = [ir.Loop([ir.For("i", 0, 2, 1, [ir.Assign("x", "mov", [0])])])]
    depths = {s.kind: d for s, d in ir.walk_with_depth(body)}
    assert depths["loop"] == 0
    assert depths["for"] == 1
    assert depths["assign"] == 2


def test_count_stmts():
    body = [ir.Loop([ir.Assign("x", "mov", [0]), ir.Break()])]
    assert ir.count_stmts(body) == 3


def test_repr_does_not_crash():
    for stmt in (
        ir.Assign("x", "add", ["a", 1]),
        ir.Load("v", "@a", "i"),
        ir.EnqCtrl(0, ir.Ctrl("DONE")),
        ir.Barrier("phase"),
        ir.Call("r", "work", ["x"]),
        ir.EnqCtrlDist(1, ir.Ctrl("NEXT")),
    ):
        assert isinstance(repr(stmt), str)
