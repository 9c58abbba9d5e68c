"""Mini-C parser: grammar coverage and error reporting."""

import pytest

from repro.errors import ParseError
from repro.frontend import cast
from repro.frontend.parser import parse


def _body(src):
    (fn,) = parse("void k(int n) { %s }" % src)
    return fn.body


def _expr(src):
    (stmt,) = _body("%s;" % src)
    return stmt.expr


def test_function_signature():
    (fn,) = parse("void bfs(const int* restrict nodes, int n) {}")
    assert fn.name == "bfs"
    assert fn.params[0].type.is_pointer
    assert fn.params[0].type.const
    assert fn.params[0].type.restrict
    assert not fn.params[1].type.is_pointer


def test_array_param_syntax():
    (fn,) = parse("void k(int a[]) {}")
    assert fn.params[0].type.is_pointer


def test_precedence_mul_over_add():
    e = _expr("1 + 2 * 3")
    assert isinstance(e, cast.Binary) and e.op == "+"
    assert isinstance(e.rhs, cast.Binary) and e.rhs.op == "*"


def test_precedence_compare_over_and():
    e = _expr("a < 1 && b > 2")
    assert e.op == "&&"
    assert e.lhs.op == "<"


def test_ternary():
    e = _expr("a ? b : c")
    assert isinstance(e, cast.Ternary)
    assert e.line == 1


def test_bitwise_not_nodes_carry_the_line():
    (fn,) = parse("void k(int n) {\n  n = ~n;\n}")
    e = fn.body[0].expr.value
    assert isinstance(e.rhs, cast.Number) and e.rhs.value == 1
    assert (e.line, e.lhs.line, e.rhs.line) == (2, 2, 2)


def test_unary_chain():
    e = _expr("-!a")
    assert isinstance(e, cast.Unary) and e.op == "neg"
    assert isinstance(e.operand, cast.Unary) and e.operand.op == "not"


def test_cast_is_noop():
    e = _expr("(int) x")
    assert isinstance(e, cast.Name)


def test_index_and_call_postfix():
    e = _expr("f(a[i], 3)")
    assert isinstance(e, cast.CallExpr)
    assert isinstance(e.args[0], cast.Index)


def test_compound_assignment():
    e = _expr("x += 2")
    assert isinstance(e, cast.Assign) and e.op == "add"


def test_incdec_forms():
    post = _expr("x++")
    pre = _expr("--x")
    assert isinstance(post, cast.IncDec) and not post.is_prefix and post.delta == 1
    assert isinstance(pre, cast.IncDec) and pre.is_prefix and pre.delta == -1


def test_if_else():
    (stmt,) = _body("if (a) { x = 1; } else x = 2;")
    assert isinstance(stmt, cast.IfStmt)
    assert len(stmt.then_body) == 1 and len(stmt.else_body) == 1


def test_while():
    (stmt,) = _body("while (a < 3) a = a + 1;")
    assert isinstance(stmt, cast.WhileStmt)


def test_for_full_header():
    (stmt,) = _body("for (int i = 0; i < n; i++) { }")
    assert isinstance(stmt, cast.ForStmt)
    assert isinstance(stmt.init[0], cast.VarDecl)


def test_for_empty_clauses():
    (stmt,) = _body("for (;;) break;")
    assert stmt.init == [] and stmt.cond is None and stmt.post is None


def test_multi_declarator():
    body = _body("int a = 1, b = 2;")
    assert [d.name for d in body] == ["a", "b"]


def test_pragma_inside_body():
    body = _body("#pragma decouple\n x = 1;")
    assert isinstance(body[0], cast.PragmaStmt)


def test_pragmas_attach_to_function():
    (fn,) = parse("#pragma phloem\n#pragma replicate 4\nvoid k() {}")
    assert fn.pragmas == ["phloem", "replicate 4"]


def test_dangling_pragma_rejected():
    with pytest.raises(ParseError, match="dangling"):
        parse("#pragma phloem\n")


def test_missing_semicolon():
    with pytest.raises(ParseError, match="expected"):
        parse("void k() { x = 1 }")


def test_invalid_assignment_target():
    with pytest.raises(ParseError, match="assignment target"):
        parse("void k() { 3 = x; }")


def test_true_false_literals():
    e = _expr("true")
    assert isinstance(e, cast.Number) and e.value == 1
