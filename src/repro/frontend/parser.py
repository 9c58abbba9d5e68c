"""Recursive-descent parser for the mini-C frontend.

Grammar (informally)::

    unit     := (pragma | funcdef)*
    funcdef  := type ident '(' params ')' block
    param    := qualifiers type '*'? qualifiers ident
    stmt     := vardecl ';' | 'if' ... | 'while' ... | 'for' ...
              | 'break' ';' | 'continue' ';' | 'return' expr? ';'
              | block | pragma | expr ';'
    expr     := assignment (with ?:, ||, &&, |, ^, &, ==/!=, relational,
                shifts, additive, multiplicative, unary, postfix)

Pragmas before a function attach to it; pragmas inside a body become
:class:`~repro.frontend.cast.PragmaStmt` statements (``#pragma decouple``).
"""

from ..errors import ParseError
from . import cast
from .lexer import tokenize

_TYPE_KEYWORDS = frozenset(["void", "int", "long", "float", "double", "unsigned"])
_QUALIFIERS = frozenset(["const", "restrict"])

_ASSIGN_OPS = {
    "=": None,
    "+=": "add",
    "-=": "sub",
    "*=": "mul",
    "/=": "div",
    "%=": "mod",
    "&=": "and",
    "|=": "or",
    "^=": "xor",
    "<<=": "shl",
    ">>=": "shr",
}

# Binary operator precedence (higher binds tighter).
_BINARY_PREC = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}


class Parser:
    def __init__(self, source):
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    def peek(self, offset=0):
        # ``advance`` never steps past the closing eof token, so only a
        # lookahead offset can reach beyond the list: it reads eof.
        if offset:
            index = self.pos + offset
            return self.tokens[index] if index < len(self.tokens) else self.tokens[-1]
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def check(self, kind, value=None):
        tok = self.tokens[self.pos]
        return tok.kind == kind and (value is None or tok.value == value)

    def accept(self, kind, value=None):
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind, value=None):
        tok = self.peek()
        if not self.check(kind, value):
            want = value if value is not None else kind
            raise ParseError("expected %r, found %r" % (want, tok.value), tok.line, tok.col)
        return self.advance()

    # -- top level ------------------------------------------------------------

    def parse_unit(self):
        """Parse the whole translation unit into a list of FuncDefs."""
        functions = []
        pending_pragmas = []
        while not self.check("eof"):
            if self.check("pragma"):
                pending_pragmas.append(self.advance().value)
            else:
                functions.append(self.parse_funcdef(pending_pragmas))
                pending_pragmas = []
        if pending_pragmas:
            raise ParseError("dangling #pragma with no following function")
        return functions

    def parse_funcdef(self, pragmas):
        line = self.peek().line
        ret_type = self.parse_type()
        name = self.expect("ident").value
        self.expect("punct", "(")
        params = []
        if not self.check("punct", ")"):
            while True:
                params.append(self.parse_param())
                if not self.accept("punct", ","):
                    break
        self.expect("punct", ")")
        body = self.parse_block()
        return cast.FuncDef(name, ret_type, params, body, list(pragmas), line)

    def _is_type_start(self):
        tok = self.peek()
        return tok.kind == "keyword" and (tok.value in _TYPE_KEYWORDS or tok.value in _QUALIFIERS)

    def parse_type(self):
        const = False
        restrict = False
        unsigned = False
        base = None
        while True:
            tok = self.peek()
            if tok.kind != "keyword":
                break
            if tok.value == "const":
                const = True
            elif tok.value == "restrict":
                restrict = True
            elif tok.value == "unsigned":
                unsigned = True
            elif tok.value in _TYPE_KEYWORDS:
                if base is not None:
                    break
                base = tok.value
            else:
                break
            self.advance()
        if base is None:
            if unsigned:
                base = "int"
            else:
                tok = self.peek()
                raise ParseError("expected a type, found %r" % (tok.value,), tok.line, tok.col)
        is_pointer = False
        while self.accept("punct", "*"):
            is_pointer = True
            # Qualifiers may follow the star (e.g. `int* restrict`).
            while self.peek().kind == "keyword" and self.peek().value in _QUALIFIERS:
                if self.peek().value == "const":
                    const = True
                else:
                    restrict = True
                self.advance()
        return cast.CType(base, is_pointer, const, restrict, unsigned)

    def parse_param(self):
        line = self.peek().line
        type_ = self.parse_type()
        name = self.expect("ident").value
        # Tolerate `int arr[]` as a pointer parameter.
        if self.accept("punct", "["):
            self.expect("punct", "]")
            type_.is_pointer = True
        return cast.Param(type_, name, line)

    # -- statements -----------------------------------------------------------

    def parse_block(self):
        self.expect("punct", "{")
        body = []
        while not self.check("punct", "}"):
            body.extend(self.parse_stmt())
        self.expect("punct", "}")
        return body

    def parse_stmt(self):
        """Parse one statement; returns a *list* (declarations may expand)."""
        tok = self.peek()

        if tok.kind == "pragma":
            self.advance()
            return [cast.PragmaStmt(tok.value, tok.line)]

        if self.check("punct", "{"):
            return self.parse_block()

        if self.check("punct", ";"):
            self.advance()
            return []

        if tok.kind == "keyword":
            if tok.value == "if":
                return [self.parse_if()]
            if tok.value == "while":
                return [self.parse_while()]
            if tok.value == "for":
                return [self.parse_for()]
            if tok.value == "break":
                self.advance()
                self.expect("punct", ";")
                return [cast.BreakStmt(tok.line)]
            if tok.value == "continue":
                self.advance()
                self.expect("punct", ";")
                return [cast.ContinueStmt(tok.line)]
            if tok.value == "return":
                self.advance()
                expr = None if self.check("punct", ";") else self.parse_expr()
                self.expect("punct", ";")
                return [cast.ReturnStmt(expr, tok.line)]
            if tok.value in _TYPE_KEYWORDS or tok.value in _QUALIFIERS:
                decls = self.parse_vardecls()
                self.expect("punct", ";")
                return decls

        expr = self.parse_expr()
        self.expect("punct", ";")
        return [cast.ExprStmt(expr, tok.line)]

    def parse_vardecls(self):
        line = self.peek().line
        type_ = self.parse_type()
        decls = []
        while True:
            name = self.expect("ident").value
            init = None
            if self.accept("punct", "="):
                init = self.parse_assignment()
            decls.append(cast.VarDecl(type_, name, init, line))
            if not self.accept("punct", ","):
                break
        return decls

    def parse_if(self):
        line = self.expect("keyword", "if").line
        self.expect("punct", "(")
        cond = self.parse_expr()
        self.expect("punct", ")")
        then_body = self.parse_stmt()
        else_body = []
        if self.accept("keyword", "else"):
            else_body = self.parse_stmt()
        return cast.IfStmt(cond, then_body, else_body, line)

    def parse_while(self):
        line = self.expect("keyword", "while").line
        self.expect("punct", "(")
        cond = self.parse_expr()
        self.expect("punct", ")")
        body = self.parse_stmt()
        return cast.WhileStmt(cond, body, line)

    def parse_for(self):
        line = self.expect("keyword", "for").line
        self.expect("punct", "(")
        init = []
        if not self.check("punct", ";"):
            if self._is_type_start():
                init = self.parse_vardecls()
            else:
                init = [cast.ExprStmt(self.parse_expr(), line)]
        self.expect("punct", ";")
        cond = None if self.check("punct", ";") else self.parse_expr()
        self.expect("punct", ";")
        post = None if self.check("punct", ")") else self.parse_expr()
        self.expect("punct", ")")
        body = self.parse_stmt()
        return cast.ForStmt(init, cond, post, body, line)

    # -- expressions ------------------------------------------------------------

    def parse_expr(self):
        return self.parse_assignment()

    def parse_assignment(self):
        lhs = self.parse_ternary()
        tok = self.peek()
        if tok.kind == "punct" and tok.value in _ASSIGN_OPS:
            self.advance()
            rhs = self.parse_assignment()
            if not isinstance(lhs, (cast.Name, cast.Index)):
                raise ParseError("invalid assignment target", tok.line, tok.col)
            return cast.Assign(lhs, _ASSIGN_OPS[tok.value], rhs, tok.line)
        return lhs

    def parse_ternary(self):
        cond = self.parse_binary(1)
        tok = self.accept("punct", "?")
        if tok is not None:
            then_expr = self.parse_assignment()
            self.expect("punct", ":")
            else_expr = self.parse_assignment()
            return cast.Ternary(cond, then_expr, else_expr, tok.line)
        return cond

    def parse_binary(self, min_prec):
        lhs = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind != "punct":
                break
            prec = _BINARY_PREC.get(tok.value)
            if prec is None or prec < min_prec:
                break
            self.advance()
            rhs = self.parse_binary(prec + 1)
            lhs = cast.Binary(tok.value, lhs, rhs, tok.line)
        return lhs

    def parse_unary(self):
        tok = self.peek()
        if tok.kind == "punct":
            if tok.value == "-":
                self.advance()
                return cast.Unary("neg", self.parse_unary(), tok.line)
            if tok.value == "!":
                self.advance()
                return cast.Unary("not", self.parse_unary(), tok.line)
            if tok.value == "~":
                self.advance()
                # ~x == -x - 1 on two's-complement ints.
                return cast.Binary("-", cast.Unary("neg", self.parse_unary(), tok.line), cast.Number(1, tok.line), tok.line)
            if tok.value == "+":
                self.advance()
                return self.parse_unary()
            if tok.value in ("++", "--"):
                self.advance()
                target = self.parse_unary()
                return cast.IncDec(target, 1 if tok.value == "++" else -1, True, tok.line)
            if tok.value == "(":
                # Could be a cast like `(int)` — treat casts as no-ops.
                if self.peek(1).kind == "keyword" and self.peek(1).value in _TYPE_KEYWORDS:
                    self.advance()
                    self.parse_type()
                    self.expect("punct", ")")
                    return self.parse_unary()
        return self.parse_postfix()

    def parse_postfix(self):
        expr = self.parse_primary()
        while True:
            tok = self.peek()
            if self.check("punct", "["):
                self.advance()
                index = self.parse_expr()
                self.expect("punct", "]")
                expr = cast.Index(expr, index, tok.line)
            elif self.check("punct", "(") and isinstance(expr, cast.Name):
                self.advance()
                args = []
                if not self.check("punct", ")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept("punct", ","):
                            break
                self.expect("punct", ")")
                expr = cast.CallExpr(expr.ident, args, tok.line)
            elif self.check("punct", "++") or self.check("punct", "--"):
                op = self.advance()
                expr = cast.IncDec(expr, 1 if op.value == "++" else -1, False, op.line)
            else:
                break
        return expr

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return cast.Number(tok.value, tok.line)
        if tok.kind == "ident":
            self.advance()
            return cast.Name(tok.value, tok.line)
        if tok.kind == "keyword" and tok.value in ("true", "false"):
            self.advance()
            return cast.Number(1 if tok.value == "true" else 0, tok.line)
        if self.accept("punct", "("):
            expr = self.parse_expr()
            self.expect("punct", ")")
            return expr
        raise ParseError("unexpected token %r" % (tok.value,), tok.line, tok.col)


def parse(source):
    """Parse mini-C ``source`` into a list of FuncDef ASTs."""
    return Parser(source).parse_unit()
