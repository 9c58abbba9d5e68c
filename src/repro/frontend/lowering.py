"""Lowering from mini-C ASTs to Phloem IR.

This is where serial C semantics become the fine-grain region-tree IR:
expressions flatten to three-address statements, ``for`` loops with affine
headers become IR ``For`` nodes (the shape the cost model and decoupler
reason about), and everything else becomes ``Loop``/``If``/``Break``.

Symbol kinds:

* pointer parameters -> arrays (referenced as ``@name``);
* scalar parameters and locals -> mutable registers named after the source;
* pointer-typed locals -> registers holding array *handles* (this is how the
  swappable ``cur_fringe``/``next_fringe`` of BFS are modeled).
"""

from .. import ir
from ..diag import Span
from ..errors import LoweringError
from . import cast
from .parser import parse
from .pragmas import DECOUPLE_MARK, DISTRIBUTE_MARK, collect_function_pragmas, parse_pragma

#: Identifiers resolved as compile-time constants, as <limits.h> would.
BUILTIN_CONSTANTS = {
    "INT_MAX": 2**31 - 1,
    "INT_MIN": -(2**31),
    "LONG_MAX": 2**63 - 1,
    "UINT_MAX": 2**32 - 1,
}

_BINOP_MAP = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "%": "mod",
    "&": "and",
    "|": "or",
    "^": "xor",
    "<<": "shl",
    ">>": "shr",
    "<": "lt",
    "<=": "le",
    ">": "gt",
    ">=": "ge",
    "==": "eq",
    "!=": "ne",
}

_BOOL_PRODUCING = frozenset(["<", "<=", ">", ">=", "==", "!=", "&&", "||"])

_SIDE_EFFECTS = (cast.Assign, cast.IncDec, cast.CallExpr)


def _is_pure(expr):
    """True if evaluating ``expr`` has no side effects."""
    return not any(type(node) in _SIDE_EFFECTS for node in cast.walk(expr))


def _mutated_names(body):
    """Every variable ``body`` declares or assigns, and every array or pointer
    it stores an element through, conditions and initializers included."""
    names = set()
    for node in cast.walk(*body):
        if type(node) is cast.VarDecl:
            names.add(node.name)
        elif type(node) in (cast.Assign, cast.IncDec):
            target = node.target
            if type(target) is cast.Index:
                target = target.base
            if type(target) is cast.Name:
                names.add(target.ident)
    return names


def _pointer_aliases(funcdef):
    """Name -> every array or pointer it may name, for each array parameter
    and pointer local of ``funcdef``: the classes that pointer initializers
    and assignments anywhere in the function join (flow-insensitive, so an
    over-approximation)."""
    nodes = list(cast.walk(*funcdef.body))
    pointers = [p.name for p in funcdef.params if p.type.is_pointer]
    pointers += [n.name for n in nodes if type(n) is cast.VarDecl and n.type.is_pointer]
    classes = {name: {name} for name in pointers}
    for node in nodes:
        if type(node) is cast.VarDecl:
            name, value = node.name, node.init
        elif type(node) is cast.Assign and node.op is None and type(node.target) is cast.Name:
            name, value = node.target.ident, node.value
        else:
            continue
        if name in classes and type(value) is cast.Name and value.ident in classes:
            joined = classes[name] | classes[value.ident]
            for member in joined:
                classes[member] = joined
    return classes


def _expr_names(expr):
    return {node.ident for node in cast.walk(expr) if type(node) is cast.Name}


class _Symbols:
    SCALAR = "scalar"
    ARRAY = "array"
    POINTER = "pointer"

    def __init__(self):
        self.kinds = {}

    def declare(self, name, kind):
        self.kinds[name] = kind

    def kind_of(self, name):
        return self.kinds.get(name)


class Lowerer:
    """Lowers one FuncDef to an ir.Function."""

    def __init__(self, funcdef):
        self.funcdef = funcdef
        self.builder = ir.IRBuilder(temp_prefix="%t")
        self.symbols = _Symbols()
        self.arrays = {}
        self.scalar_params = []
        self.intrinsic_names = set()
        self.aliases = _pointer_aliases(funcdef)

    # -- helpers ------------------------------------------------------------

    def error(self, node, msg):
        raise LoweringError(msg, line=getattr(node, "line", None))

    def _span(self, node):
        """The diag Span of an AST node, or None when the parser lost it."""
        line = getattr(node, "line", None)
        return Span(line) if line is not None else None

    def _as_bool(self, expr, operand):
        """Normalize a lowered operand to 0/1 when its AST shape isn't boolean."""
        if isinstance(expr, cast.Binary) and expr.op in _BOOL_PRODUCING:
            return operand
        if isinstance(expr, cast.Unary) and expr.op == "not":
            return operand
        if isinstance(operand, (int, float)):
            return 1 if operand else 0
        return self.builder.binop("ne", operand, 0)

    # -- entry point ------------------------------------------------------------

    def lower(self):
        fd = self.funcdef
        for param in fd.params:
            if param.type.is_pointer:
                if not param.type.restrict:
                    raise LoweringError(
                        "pointer parameter %r lacks 'restrict': Phloem requires "
                        "precise aliasing information (paper Sec. IV-A)" % param.name
                    )
                self.symbols.declare(param.name, _Symbols.ARRAY)
                self.arrays[param.name] = ir.ArrayDecl(
                    param.name,
                    elem_size=param.type.elem_size,
                    readonly=param.type.const,
                    restrict=True,
                    is_float=param.type.is_float,
                )
            else:
                self.symbols.declare(param.name, _Symbols.SCALAR)
                self.scalar_params.append(param.name)

        self.lower_body(fd.body, toplevel=True)
        body = self.builder.finish()
        pragmas = collect_function_pragmas(fd.pragmas)
        function = ir.Function(fd.name, self.scalar_params, self.arrays, body, pragmas)
        ir.verify_function(function)
        return function

    # -- statements ------------------------------------------------------------

    def lower_body(self, stmts, toplevel=False):
        for i, stmt in enumerate(stmts):
            if isinstance(stmt, cast.ReturnStmt):
                if stmt.expr is not None:
                    self.error(stmt, "kernels must return void")
                if not (toplevel and i == len(stmts) - 1):
                    self.error(stmt, "early return is not supported")
                continue
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt):
        span = self._span(stmt)
        if span is not None:
            self.builder.at(span)
        if isinstance(stmt, cast.VarDecl):
            self.lower_vardecl(stmt)
        elif isinstance(stmt, cast.ExprStmt):
            self.lower_expr_stmt(stmt.expr)
        elif isinstance(stmt, cast.IfStmt):
            self.lower_if(stmt)
        elif isinstance(stmt, cast.WhileStmt):
            self.lower_while(stmt)
        elif isinstance(stmt, cast.ForStmt):
            self.lower_for(stmt)
        elif isinstance(stmt, cast.BreakStmt):
            self.builder.break_()
        elif isinstance(stmt, cast.ContinueStmt):
            self.builder.continue_()
        elif isinstance(stmt, cast.PragmaStmt):
            name, _args = parse_pragma(stmt.text)
            if name == "decouple":
                self.builder.comment(DECOUPLE_MARK)
            elif name == "distribute":
                self.builder.comment(DISTRIBUTE_MARK)
            else:
                self.error(stmt, "#pragma %s is not valid inside a body" % name)
        elif isinstance(stmt, cast.ReturnStmt):
            self.error(stmt, "early return is not supported")
        else:
            self.error(stmt, "unsupported statement %r" % type(stmt).__name__)

    def lower_vardecl(self, decl):
        if decl.type.is_pointer:
            self.symbols.declare(decl.name, _Symbols.POINTER)
            if decl.init is None:
                self.error(decl, "pointer local %r needs an initializer" % decl.name)
            value = self.lower_expr(decl.init)
            if not (ir.is_array_symbol(value) or self._is_pointer_reg(value)):
                self.error(decl, "pointer local %r must be initialized from an array" % decl.name)
            self.builder.mov(value, dst=decl.name)
        else:
            self.symbols.declare(decl.name, _Symbols.SCALAR)
            init = 0.0 if decl.type.is_float else 0
            value = self.lower_expr(decl.init) if decl.init is not None else init
            self.builder.mov(value, dst=decl.name)

    def _is_pointer_reg(self, operand):
        return isinstance(operand, str) and self.symbols.kind_of(operand) == _Symbols.POINTER

    def lower_expr_stmt(self, expr):
        if isinstance(expr, cast.Assign):
            self.lower_assign(expr)
        elif isinstance(expr, cast.IncDec):
            self.lower_incdec(expr, need_value=False)
        elif isinstance(expr, cast.CallExpr):
            self.lower_call(expr, need_value=False)
        else:
            # A pure expression statement has no effect; evaluate for errors.
            self.lower_expr(expr)

    def lower_assign(self, node):
        target = node.target
        if isinstance(target, cast.Name):
            name = target.ident
            kind = self.symbols.kind_of(name)
            if kind is None:
                self.error(node, "assignment to undeclared variable %r" % name)
            if kind == _Symbols.ARRAY:
                self.error(node, "cannot assign to array parameter %r" % name)
            if node.op is None:
                value = self.lower_expr(node.value)
                if kind == _Symbols.POINTER and not (
                    ir.is_array_symbol(value) or self._is_pointer_reg(value)
                ):
                    self.error(node, "pointer %r must be assigned from an array" % name)
                self.builder.mov(value, dst=name)
            else:
                if kind == _Symbols.POINTER:
                    self.error(node, "pointer arithmetic is not supported")
                value = self.lower_expr(node.value)
                self.builder.binop(node.op, name, value, dst=name)
        elif isinstance(target, cast.Index):
            array, index = self.lower_index_target(target)
            if node.op is None:
                value = self.lower_expr(node.value)
            else:
                old = self.builder.load(array, index)
                rhs = self.lower_expr(node.value)
                value = self.builder.binop(node.op, old, rhs)
            self.builder.store(array, index, value)
        else:
            self.error(node, "invalid assignment target")

    def lower_incdec(self, node, need_value):
        target = node.target
        op = "add" if node.delta > 0 else "sub"
        if isinstance(target, cast.Name):
            name = target.ident
            if self.symbols.kind_of(name) != _Symbols.SCALAR:
                self.error(node, "++/-- target must be a scalar variable")
            if need_value and not node.is_prefix:
                old = self.builder.mov(name)
                self.builder.binop(op, name, 1, dst=name)
                return old
            self.builder.binop(op, name, 1, dst=name)
            return name
        if isinstance(target, cast.Index):
            array, index = self.lower_index_target(target)
            old = self.builder.load(array, index)
            new = self.builder.binop(op, old, 1)
            self.builder.store(array, index, new)
            return old if (need_value and not node.is_prefix) else new
        self.error(node, "invalid ++/-- target")

    def lower_index_target(self, node):
        """Lower the base/index of an Index node; returns (array_operand, index_operand)."""
        base = node.base
        if not isinstance(base, cast.Name):
            self.error(node, "only direct array indexing is supported")
        kind = self.symbols.kind_of(base.ident)
        if kind == _Symbols.ARRAY:
            array = "@" + base.ident
        elif kind == _Symbols.POINTER:
            array = base.ident
        else:
            self.error(node, "%r is not an array or pointer" % base.ident)
        index = self.lower_expr(node.index)
        return array, index

    def lower_call(self, node, need_value):
        args = [self.lower_expr(a) for a in node.args]
        self.intrinsic_names.add(node.func)
        dst = self.builder.fresh() if need_value else None
        self.builder.call(dst, node.func, args)
        return dst

    def lower_if(self, node):
        # The container node is emitted when its context closes, after the
        # body set other spans: restore the header span so it lands on the
        # If/Loop/For node itself.
        span = self._span(node)
        cond = self._as_bool(node.cond, self.lower_expr(node.cond))
        with self.builder.if_else(cond) as (then_arm, else_arm):
            with then_arm:
                self.lower_body(node.then_body)
            with else_arm:
                self.lower_body(node.else_body)
            self.builder.at(span)

    def lower_while(self, node):
        span = self._span(node)
        with self.builder.loop():
            cond = self._as_bool(node.cond, self.lower_expr(node.cond))
            stop = self.builder.assign("not", [cond])
            with self.builder.if_(stop):
                self.builder.break_()
            self.lower_body(node.body)
            self.builder.at(span)

    def lower_for(self, node):
        span = self._span(node)
        affine = self._match_affine_for(node)
        if affine is not None:
            var, lo_expr, hi_expr, step = affine
            lo = self.lower_expr(lo_expr)
            hi = self.lower_expr(hi_expr)
            self.symbols.declare(var, _Symbols.SCALAR)
            with self.builder.for_(var, lo, hi, step):
                self.lower_body(node.body)
                self.builder.at(span)
            return
        # General form: lower like a while loop.
        for init in node.init:
            self.lower_stmt(init)
        with self.builder.loop():
            if node.cond is not None:
                cond = self._as_bool(node.cond, self.lower_expr(node.cond))
                stop = self.builder.assign("not", [cond])
                with self.builder.if_(stop):
                    self.builder.break_()
            self.lower_body(node.body)
            if node.post is not None:
                self.lower_expr_stmt(node.post)
            self.builder.at(span)

    def _match_affine_for(self, node):
        """Recognize ``for (v = lo; v < hi; v += step)`` headers.

        Returns ``(var, lo_expr, hi_expr, step)`` or None. C re-evaluates the
        bound every iteration and the IR ``For`` evaluates it once, so the
        bound must be pure and nothing in the body, conditions and
        initializers included, may write it — a variable, or an element of an
        array it reads directly or through a pointer that may name it; nor
        may the body touch ``v``.
        """
        if len(node.init) != 1 or node.cond is None or node.post is None:
            return None
        init = node.init[0]
        if isinstance(init, cast.VarDecl) and not init.type.is_pointer and init.init is not None:
            var = init.name
            lo_expr = init.init
        elif (
            isinstance(init, cast.ExprStmt)
            and isinstance(init.expr, cast.Assign)
            and init.expr.op is None
            and isinstance(init.expr.target, cast.Name)
        ):
            var = init.expr.target.ident
            lo_expr = init.expr.value
        else:
            return None

        cond = node.cond
        if not (
            isinstance(cond, cast.Binary)
            and cond.op == "<"
            and isinstance(cond.lhs, cast.Name)
            and cond.lhs.ident == var
            and _is_pure(cond.rhs)
        ):
            return None
        hi_expr = cond.rhs

        post = node.post
        if isinstance(post, cast.IncDec) and isinstance(post.target, cast.Name) and post.target.ident == var:
            step = post.delta
        elif (
            isinstance(post, cast.Assign)
            and post.op == "add"
            and isinstance(post.target, cast.Name)
            and post.target.ident == var
            and isinstance(post.value, cast.Number)
        ):
            step = post.value.value
        else:
            return None
        if step <= 0:
            return None

        mutated = _mutated_names(node.body)
        if var in mutated:
            return None
        for name in _expr_names(hi_expr) | _expr_names(lo_expr):
            if not mutated.isdisjoint(self.aliases.get(name, (name,))):
                return None
        return var, lo_expr, hi_expr, step

    # -- expressions -----------------------------------------------------------

    def lower_expr(self, node):
        if isinstance(node, cast.Number):
            return node.value
        if isinstance(node, cast.Name):
            name = node.ident
            if name in BUILTIN_CONSTANTS:
                return BUILTIN_CONSTANTS[name]
            kind = self.symbols.kind_of(name)
            if kind == _Symbols.ARRAY:
                return "@" + name
            if kind is None:
                self.error(node, "use of undeclared identifier %r" % name)
            return name
        if isinstance(node, cast.Unary):
            operand = self.lower_expr(node.operand)
            if isinstance(operand, (int, float)):
                return ir.evaluate(node.op, [operand])
            return self.builder.assign(node.op, [operand])
        if isinstance(node, cast.Binary):
            return self.lower_binary(node)
        if isinstance(node, cast.Ternary):
            if not _is_pure(node):
                self.error(node, "?: with side effects is not supported")
            cond = self._as_bool(node.cond, self.lower_expr(node.cond))
            a = self.lower_expr(node.then_expr)
            b = self.lower_expr(node.else_expr)
            return self.builder.assign("select", [cond, a, b])
        if isinstance(node, cast.Index):
            array, index = self.lower_index_target(node)
            return self.builder.load(array, index)
        if isinstance(node, cast.Assign):
            self.lower_assign(node)
            if isinstance(node.target, cast.Name):
                return node.target.ident
            self.error(node, "assignment used as a value must target a variable")
        if isinstance(node, cast.IncDec):
            return self.lower_incdec(node, need_value=True)
        if isinstance(node, cast.CallExpr):
            return self.lower_call(node, need_value=True)
        self.error(node, "unsupported expression %r" % type(node).__name__)

    def lower_binary(self, node):
        if node.op in ("&&", "||"):
            if not _is_pure(node):
                self.error(node, "%s with side effects is not supported" % node.op)
            lhs = self._as_bool(node.lhs, self.lower_expr(node.lhs))
            rhs = self._as_bool(node.rhs, self.lower_expr(node.rhs))
            return self.builder.binop("and" if node.op == "&&" else "or", lhs, rhs)
        op = _BINOP_MAP.get(node.op)
        if op is None:
            self.error(node, "unsupported operator %r" % node.op)
        lhs = self.lower_expr(node.lhs)
        rhs = self.lower_expr(node.rhs)
        if isinstance(lhs, (int, float)) and isinstance(rhs, (int, float)):
            return ir.evaluate(op, [lhs, rhs])
        return self.builder.binop(op, lhs, rhs)


def lower_function(funcdef):
    """Lower a single parsed FuncDef into an ir.Function."""
    return Lowerer(funcdef).lower()


def compile_source(source, name=None, inline=True):
    """Parse mini-C ``source`` and lower it; returns one ir.Function.

    If the source contains several functions, ``name`` selects which one;
    calls to the *other* functions in the unit are inlined first (so their
    loops and loads participate in decoupling — the paper's Sec. IV-A
    future work). Calls to names not defined in the unit stay opaque
    intrinsics. Pass ``inline=False`` to treat every call as an intrinsic.
    """
    funcdefs = parse(source)
    if not funcdefs:
        raise LoweringError("no functions in source")
    if name is None:
        if len(funcdefs) > 1:
            raise LoweringError("multiple functions in source; pass name=")
        name = funcdefs[0].name
    matches = [f for f in funcdefs if f.name == name]
    if not matches:
        raise LoweringError("no function named %r in source" % name)
    if inline and len(funcdefs) > 1:
        from .inline import inline_unit

        return lower_function(inline_unit(funcdefs, name))
    return lower_function(matches[0])
