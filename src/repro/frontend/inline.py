"""Function inlining (the paper's stated future work, Sec. IV-A).

Phloem "currently works on a single procedure... Calls to other functions
are supported, but Phloem does not decouple within those calls. Inlining
could remove this limitation; we leave this to future work." This module
implements that future work at the AST level: calls to functions *defined
in the same translation unit* are spliced into the caller before lowering,
so their loads and loops participate in decoupling; calls to undefined
names remain opaque intrinsics, exactly as before.

Supported callees: non-recursive functions whose body ends in at most one
trailing ``return expr;`` (void or single-value helpers — the shape small
C kernels factor into).
"""

from ..errors import LoweringError
from . import cast


def _rename(node, mapping):
    """A copy of ``node`` with every variable use and declaration renamed."""

    def rename(new):
        if type(new) is cast.Name:
            new.ident = mapping.get(new.ident, new.ident)
        elif type(new) is cast.VarDecl or type(new) is cast.Param:
            new.name = mapping.get(new.name, new.name)
        return new

    return cast.rebuild(node, rename)


def _conditional_operands(node):
    """The operands C may skip: the right side of ``&&``/``||``, the arms of ``?:``."""
    if type(node) is cast.Ternary:
        return (node.then_expr, node.else_expr)
    if type(node) is cast.Binary and node.op in ("&&", "||"):
        return (node.rhs,)
    return ()


class _Inliner:
    def __init__(self, unit):
        self.defs = {fd.name: fd for fd in unit}
        self.counter = 0

    def _calls_defined(self, expr):
        return any(type(n) is cast.CallExpr and n.func in self.defs for n in cast.walk(expr))

    def _splice_call(self, call, out, active):
        """Inline ``call``; returns the expression replacing it (or None)."""
        callee = self.defs[call.func]
        if call.func in active:
            raise LoweringError("recursive call to %r cannot be inlined" % call.func)
        if len(call.args) != len(callee.params):
            raise LoweringError(
                "call to %r passes %d args for %d parameters"
                % (call.func, len(call.args), len(callee.params))
            )

        self.counter += 1
        suffix = "__inl%d" % self.counter
        mapping = {}
        prologue = []
        for param, arg in zip(callee.params, call.args):
            if param.type.is_pointer:
                if not isinstance(arg, cast.Name):
                    raise LoweringError(
                        "pointer argument to %r must be an array name" % call.func
                    )
                mapping[param.name] = arg.ident  # alias straight through
            else:
                local = param.name + suffix
                mapping[param.name] = local
                prologue.append(cast.VarDecl(param.type, local, arg, call.line))
        for node in cast.walk(*callee.body):
            if type(node) is cast.VarDecl:
                mapping.setdefault(node.name, node.name + suffix)

        body = [_rename(s, mapping) for s in callee.body]

        # Materialize the trailing return *before* recursing, so calls in
        # the returned expression are themselves inlined.
        result_expr = None
        if body and isinstance(body[-1], cast.ReturnStmt):
            ret = body.pop()
            if ret.expr is not None:
                ret_name = "__ret" + suffix
                ret_type = cast.CType(callee.ret_type.base)
                body.append(cast.VarDecl(ret_type, ret_name, ret.expr, call.line))
                result_expr = cast.Name(ret_name, call.line)
        if any(type(s) is cast.ReturnStmt for s in cast.walk(*body)):
            raise LoweringError("%r has a non-trailing return; cannot inline" % call.func)
        body = self._inline_body(body, active | {call.func})

        out.extend(prologue)
        out.extend(body)
        return result_expr

    def _rewrite_expr(self, expr, out, active):
        """Hoist inlinable calls out of ``expr``; returns the new expression.

        A hoisted call runs before the whole expression, so one in an operand
        C may skip is rejected, as lowering rejects any side effect there.
        """
        for node in cast.walk(expr):
            if any(self._calls_defined(e) for e in _conditional_operands(node)):
                op = "?:" if type(node) is cast.Ternary else node.op
                raise LoweringError("%s with side effects is not supported" % op, line=node.line)

        def splice(node):
            if type(node) is not cast.CallExpr or node.func not in self.defs:
                return node
            result = self._splice_call(node, out, active)
            if result is None:
                raise LoweringError("void function %r used as a value" % node.func)
            return result

        return cast.rebuild(expr, splice)

    def _inline_body(self, body, active):
        out = []
        for stmt in body:
            if isinstance(stmt, cast.ExprStmt) and isinstance(stmt.expr, cast.CallExpr) and stmt.expr.func in self.defs:
                args = [self._rewrite_expr(a, out, active) for a in stmt.expr.args]
                self._splice_call(cast.CallExpr(stmt.expr.func, args, stmt.expr.line), out, active)
                continue
            if isinstance(stmt, cast.ExprStmt):
                out.append(cast.ExprStmt(self._rewrite_expr(stmt.expr, out, active), stmt.line))
            elif isinstance(stmt, cast.VarDecl):
                init = self._rewrite_expr(stmt.init, out, active) if stmt.init is not None else None
                out.append(cast.VarDecl(stmt.type, stmt.name, init, stmt.line))
            elif isinstance(stmt, cast.IfStmt):
                cond = self._rewrite_expr(stmt.cond, out, active)
                out.append(
                    cast.IfStmt(
                        cond,
                        self._inline_body(stmt.then_body, active),
                        self._inline_body(stmt.else_body, active),
                        stmt.line,
                    )
                )
            elif isinstance(stmt, cast.WhileStmt):
                # Calls in while conditions would need per-iteration
                # re-hoisting; reject rather than silently change semantics.
                if self._calls_defined(stmt.cond):
                    raise LoweringError("cannot inline a call in a while condition")
                out.append(cast.WhileStmt(stmt.cond, self._inline_body(stmt.body, active), stmt.line))
            elif isinstance(stmt, cast.ForStmt):
                if (stmt.cond is not None and self._calls_defined(stmt.cond)) or (
                    stmt.post is not None and self._calls_defined(stmt.post)
                ):
                    raise LoweringError("cannot inline a call in a loop header")
                out.append(
                    cast.ForStmt(
                        self._inline_body(stmt.init, active),
                        stmt.cond,
                        stmt.post,
                        self._inline_body(stmt.body, active),
                        stmt.line,
                    )
                )
            else:
                out.append(stmt)
        return out

    def inline(self, funcdef):
        return cast.FuncDef(
            funcdef.name,
            funcdef.ret_type,
            funcdef.params,
            self._inline_body(funcdef.body, {funcdef.name}),
            funcdef.pragmas,
            funcdef.line,
        )


def inline_unit(funcdefs, target):
    """Inline all same-unit calls inside the FuncDef named ``target``."""
    inliner = _Inliner(funcdefs)
    for fd in funcdefs:
        if fd.name == target:
            return inliner.inline(fd)
    raise LoweringError("no function named %r in unit" % target)
