"""AST node definitions for the mini-C frontend.

These nodes mirror the C subset the paper's kernels use. They are produced
by :mod:`repro.frontend.parser` and consumed by
:mod:`repro.frontend.lowering`; nothing downstream of lowering sees them.

A node kind is declared once, in its class: ``__slots__`` (its fields, in
constructor order) and ``CHILDREN`` (the fields holding sub-nodes: an
expression, ``None``, or a list of statements, expressions or parameters).
The constructor, :func:`walk` and :func:`rebuild` read that declaration, and
every traversal the frontend runs that only descends is derived from them.
"""


class Node:
    """Base AST node; carries a source line for diagnostics.

    ``Kind(*fields, line=None)`` takes the fields in ``__slots__`` order.
    Each kind's constructor is written from that declaration when the class
    is created, as :mod:`dataclasses` writes one: the parser builds every
    node, and a ``setattr`` loop built each one ~1.7x slower.
    """

    __slots__ = ("line",)
    CHILDREN = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = cls.__slots__
        source = "def __init__(self, %sline=None):\n%s    self.line = line\n" % (
            "".join("%s, " % f for f in fields),
            "".join("    self.%s = %s\n" % (f, f) for f in fields),
        )
        namespace = {}
        exec(source, namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = cls.__name__ + ".__init__"


# --------------------------------------------------------------------------
# Types and declarations


class CType:
    """A scalar or pointer type with qualifiers."""

    __slots__ = ("base", "is_pointer", "const", "restrict", "unsigned")

    SIZES = {"int": 4, "long": 8, "float": 4, "double": 8, "void": 0}
    FLOATS = frozenset(["float", "double"])

    def __init__(self, base, is_pointer=False, const=False, restrict=False, unsigned=False):
        self.base = base
        self.is_pointer = is_pointer
        self.const = const
        self.restrict = restrict
        self.unsigned = unsigned

    @property
    def elem_size(self):
        return self.SIZES[self.base]

    @property
    def is_float(self):
        return self.base in self.FLOATS

    def __repr__(self):
        parts = []
        if self.const:
            parts.append("const")
        if self.unsigned:
            parts.append("unsigned")
        parts.append(self.base)
        if self.is_pointer:
            parts.append("*")
        if self.restrict:
            parts.append("restrict")
        return " ".join(parts)


class Param(Node):
    __slots__ = ("type", "name")


class FuncDef(Node):
    __slots__ = ("name", "ret_type", "params", "body", "pragmas")
    CHILDREN = ("params", "body")


# --------------------------------------------------------------------------
# Statements


class VarDecl(Node):
    __slots__ = ("type", "name", "init")
    CHILDREN = ("init",)


class ExprStmt(Node):
    __slots__ = ("expr",)
    CHILDREN = ("expr",)


class IfStmt(Node):
    __slots__ = ("cond", "then_body", "else_body")
    CHILDREN = ("cond", "then_body", "else_body")


class WhileStmt(Node):
    __slots__ = ("cond", "body")
    CHILDREN = ("cond", "body")


class ForStmt(Node):
    __slots__ = ("init", "cond", "post", "body")
    CHILDREN = ("init", "cond", "post", "body")


class BreakStmt(Node):
    __slots__ = ()


class ContinueStmt(Node):
    __slots__ = ()


class ReturnStmt(Node):
    __slots__ = ("expr",)
    CHILDREN = ("expr",)


class PragmaStmt(Node):
    """A ``#pragma`` appearing inside a function body (e.g. ``decouple``)."""

    __slots__ = ("text",)


# --------------------------------------------------------------------------
# Expressions


class Name(Node):
    __slots__ = ("ident",)


class Number(Node):
    __slots__ = ("value",)


class Unary(Node):
    __slots__ = ("op", "operand")
    CHILDREN = ("operand",)


class Binary(Node):
    __slots__ = ("op", "lhs", "rhs")
    CHILDREN = ("lhs", "rhs")


class Ternary(Node):
    __slots__ = ("cond", "then_expr", "else_expr")
    CHILDREN = ("cond", "then_expr", "else_expr")


class Assign(Node):
    """``target op= value``; ``op`` is None for plain assignment."""

    __slots__ = ("target", "op", "value")
    CHILDREN = ("target", "value")


class IncDec(Node):
    """``x++ / x-- / ++x / --x`` (used as statements or value expressions)."""

    __slots__ = ("target", "delta", "is_prefix")
    CHILDREN = ("target",)


class Index(Node):
    __slots__ = ("base", "index")
    CHILDREN = ("base", "index")


class CallExpr(Node):
    __slots__ = ("func", "args")
    CHILDREN = ("args",)


# --------------------------------------------------------------------------
# Traversal


def walk(*roots):
    """Every node of the trees at ``roots``, pre-order, children in field order."""
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        yield node
        for name in reversed(node.CHILDREN):
            value = getattr(node, name)
            if type(value) is list:
                stack.extend(reversed(value))
            elif value is not None:
                stack.append(value)


def rebuild(node, fn):
    """A copy of ``node`` whose every node is passed through ``fn``, bottom-up.

    Children are rebuilt first, in field order, and ``fn`` receives each fresh
    copy and returns what replaces it (the copy itself, possibly changed, or
    another node). List fields are copied, so the result shares no list with
    ``node``.
    """
    cls = type(node)
    new = cls.__new__(cls)
    children = cls.CHILDREN
    for name in cls.__slots__:
        value = getattr(node, name)
        if name in children:
            if type(value) is list:
                value = [rebuild(v, fn) for v in value]
            elif value is not None:
                value = rebuild(value, fn)
        elif type(value) is list:
            value = value[:]
        setattr(new, name, value)
    new.line = node.line
    return fn(new)
