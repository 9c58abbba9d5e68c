"""Each mini-C node kind's declaration drives the constructor, walk, rename and rebuild.

One row per kind of :mod:`repro.frontend.cast`, written independently of
the declarations: the kind's fields in constructor order, ``<f>`` for a
field holding one sub-node and ``[f]`` for a list of sub-nodes. Each test
builds an instance with a distinct sentinel ``Name`` in every child slot (two
in a list) and a distinct plain value in every other field, so a field
missing from ``__slots__`` or ``CHILDREN`` fails at least one of them.
"""

import pytest

from repro.frontend import cast
from repro.frontend.inline import _rename

TABLE = {
    cast.Param: "type name",
    cast.FuncDef: "name ret_type [params] [body] pragmas",
    cast.VarDecl: "type name <init>",
    cast.ExprStmt: "<expr>",
    cast.IfStmt: "<cond> [then_body] [else_body]",
    cast.WhileStmt: "<cond> [body]",
    cast.ForStmt: "[init] <cond> <post> [body]",
    cast.BreakStmt: "",
    cast.ContinueStmt: "",
    cast.ReturnStmt: "<expr>",
    cast.PragmaStmt: "text",
    cast.Name: "ident",
    cast.Number: "value",
    cast.Unary: "op <operand>",
    cast.Binary: "op <lhs> <rhs>",
    cast.Ternary: "<cond> <then_expr> <else_expr>",
    cast.Assign: "<target> op <value>",
    cast.IncDec: "<target> delta is_prefix",
    cast.Index: "<base> <index>",
    cast.CallExpr: "func [args]",
}

#: The plain fields naming a variable, used or declared: renaming rewrites
#: these and no other.
RENAMED = {(cast.Name, "ident"), (cast.Param, "name"), (cast.VarDecl, "name")}

KINDS = pytest.mark.parametrize("kind", list(TABLE), ids=lambda kind: kind.__name__)


def _fields(kind):
    return [f.strip("<>[]") for f in TABLE[kind].split()]


def _plain_fields(kind):
    return [f for f in TABLE[kind].split() if f[0] not in "<["]


def _instance(kind):
    """``(node, sentinels)``: sentinels in walk order."""
    values, sentinels = [], []
    for field in TABLE[kind].split():
        name = field.strip("<>[]")
        if field.startswith("<"):
            values.append(cast.Name("%s.%s" % (kind.__name__, name), 3))
            sentinels.append(values[-1])
        elif field.startswith("["):
            values.append([cast.Name("%s.%s.%d" % (kind.__name__, name, i), 3) for i in (0, 1)])
            sentinels.extend(values[-1])
        else:
            values.append(["pragma"] if name == "pragmas" else "%s.%s" % (kind.__name__, name))
    return kind(*values, 7), sentinels


def test_table_covers_every_kind():
    kinds = {
        value
        for value in vars(cast).values()
        if isinstance(value, type) and issubclass(value, cast.Node) and value is not cast.Node
    }
    assert kinds == set(TABLE)
    assert len(TABLE) == 20


@KINDS
def test_constructor_takes_fields_then_an_optional_line(kind):
    node, _ = _instance(kind)
    assert node.line == 7
    values = [getattr(node, f) for f in _fields(kind)]
    assert kind(*values).line is None
    with pytest.raises(TypeError):
        kind(*values, 7, 8)


@KINDS
def test_walk_reaches_every_child(kind):
    node, sentinels = _instance(kind)
    assert list(cast.walk(node)) == [node] + sentinels
    assert list(cast.walk(node, node)) == ([node] + sentinels) * 2


@KINDS
def test_rename_rewrites_every_use_and_declaration(kind):
    node, sentinels = _instance(kind)
    strings = [s.ident for s in sentinels] + [
        getattr(node, f) for f in _plain_fields(kind) if isinstance(getattr(node, f), str)
    ]
    renamed = _rename(node, {s: s + "'" for s in strings})
    assert [n.ident for n in list(cast.walk(renamed))[1:]] == [s.ident + "'" for s in sentinels]
    for field in _plain_fields(kind):
        old = getattr(node, field)
        assert getattr(renamed, field) == (old + "'" if (kind, field) in RENAMED else old)


def _assert_same_tree(a, b):
    assert type(a) is type(b) and a is not b
    assert a.line == b.line
    for name in _fields(type(a)):
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, cast.Node):
            _assert_same_tree(x, y)
        elif type(x) is list:
            assert x is not y and len(x) == len(y)
            for u, v in zip(x, y):
                if isinstance(u, cast.Node):
                    _assert_same_tree(u, v)
                else:
                    assert u == v
        else:
            assert x == y


@KINDS
def test_rebuild_copies_field_by_field(kind):
    node, _ = _instance(kind)
    seen = []
    copy = cast.rebuild(node, lambda n: seen.append(n) or n)
    _assert_same_tree(node, copy)
    # Bottom-up: every child is handed to ``fn`` before its parent.
    assert seen == list(cast.walk(copy))[1:] + [copy]
