"""AST -> IR lowering: structures, affine-for detection, safety checks."""

import pytest

from repro import ir
from repro.errors import LoweringError
from repro.frontend import compile_source
from repro.runtime import run_serial


def _lower(body_src, params="const int* restrict a, int* restrict out, int n"):
    return compile_source("void k(%s) { %s }" % (params, body_src))


def _kinds(body):
    return [s.kind for s in body]


def test_params_split_arrays_scalars():
    f = _lower("out[0] = a[0];")
    assert set(f.arrays) == {"a", "out"}
    assert f.scalar_params == ["n"]
    assert f.arrays["a"].readonly
    assert not f.arrays["out"].readonly


def test_restrict_required():
    with pytest.raises(LoweringError, match="restrict"):
        compile_source("void k(int* p) { p[0] = 1; }")


def test_affine_for_becomes_For():
    f = _lower("for (int i = 0; i < n; i++) { out[i] = a[i]; }")
    loop = f.body[0]
    assert loop.kind == "for"
    assert loop.var == "i" and loop.lo == 0 and loop.step == 1


def test_for_with_step():
    f = _lower("for (int i = 0; i < n; i += 2) { out[i] = 0; }")
    assert f.body[0].step == 2


def test_nonaffine_for_falls_back_to_loop():
    f = _lower("for (int i = 0; i < n; i = i * 2 + 1) { out[i] = 0; }")
    kinds = _kinds(f.body)
    assert "loop" in kinds and "for" not in kinds


def test_for_with_mutated_bound_falls_back():
    f = compile_source(
        "void k(int* restrict out, int n) {"
        " for (int i = 0; i < n; i++) { n = n - 1; out[i] = 0; } }"
    )
    kinds = _kinds(f.body)
    assert "loop" in kinds and "for" not in kinds


# C re-evaluates `i < n` every iteration; each body shrinks n once per
# iteration from a condition or an initializer, so n = 10 stops after i = 4.
_SHRINKING_BOUND = [1, 2, 3, 4, 5, 0, 0, 0, 0, 0]


@pytest.mark.parametrize(
    "shrink",
    [
        "if ((n = n - 1) > 100) { out[0] = 7; }",
        "while (n-- > 100) { out[0] = 7; }",
        "int t = (n = n - 1);",
    ],
    ids=["if-condition", "while-condition", "initializer"],
)
def test_bound_written_in_condition_or_initializer(shrink, tiny_config):
    f = compile_source(
        "void k(int* restrict out, int n) {"
        " for (int i = 0; i < n; i++) { %s out[i] = i + 1; } }" % shrink
    )
    assert "for" not in _kinds(f.body)
    result = run_serial(f, {"out": [0] * 10}, {"n": 10}, config=tiny_config)
    assert result.arrays["out"] == _SHRINKING_BOUND


def test_side_effecting_bound_falls_back(tiny_config):
    f = compile_source(
        "void k(int* restrict out, int n) { for (int i = 0; i < n--; i++) out[i] = 1; }"
    )
    assert "for" not in _kinds(f.body)
    result = run_serial(f, {"out": [0] * 10}, {"n": 10}, config=tiny_config)
    assert result.arrays["out"] == [1] * 5 + [0] * 5


def test_while_lowering_shape():
    f = _lower("int i = 0; while (i < n) { i = i + 1; }")
    loop = f.body[1]
    assert loop.kind == "loop"
    # cond, not, if(break) prefix
    assert loop.body[0].kind == "assign" and loop.body[0].op == "lt"
    assert loop.body[1].op == "not"
    assert loop.body[2].kind == "if"
    assert loop.body[2].then_body[0].kind == "break"


def test_if_else_lowering():
    f = _lower("if (n > 0) { out[0] = 1; } else { out[0] = 2; }")
    node = f.body[-1]
    assert node.kind == "if"
    assert node.then_body[-1].kind == "store"
    assert node.else_body[-1].kind == "store"


def test_logical_and_pure():
    f = _lower("if (n > 0 && n < 10) { out[0] = 1; }")
    ands = [s for s in ir.walk(f.body) if s.kind == "assign" and s.op == "and"]
    assert len(ands) == 1


def test_logical_with_side_effects_rejected():
    with pytest.raises(LoweringError, match="side effects"):
        _lower("if (n > 0 && f(n)) { out[0] = 1; }")


def test_side_effect_diagnostics_carry_the_line():
    for expr, op in (("n > 0 && f(n)", "&&"), ("n > 0 ? f(n) : 1", r"\?:")):
        with pytest.raises(LoweringError, match=r"^line 2:\d+: %s with side effects" % op):
            compile_source("void k(int* restrict out, int n) {\n  out[0] = %s;\n}" % expr)


def test_ternary_becomes_select():
    f = _lower("out[0] = n > 0 ? 1 : 2;")
    sels = [s for s in ir.walk(f.body) if s.kind == "assign" and s.op == "select"]
    assert len(sels) == 1


def test_compound_index_assignment():
    f = _lower("out[n] += 5;")
    kinds = _kinds(f.body)
    assert kinds == ["load", "assign", "store"]
    assert f.body[1].op == "add"


def test_postincrement_value():
    f = _lower("int x = 1; out[x++] = x;")
    # old value used as index, incremented before the store's value read
    store = [s for s in ir.walk(f.body) if s.kind == "store"][0]
    assert store.index != "x"


def test_pointer_locals_and_swap():
    src = """
    void k(int* restrict f0, int* restrict f1, int n) {
      int* restrict cur = f0;
      int* restrict nxt = f1;
      int* restrict tmp = cur;
      cur = nxt;
      nxt = tmp;
      cur[0] = 1;
    }
    """
    f = compile_source(src)
    store = [s for s in ir.walk(f.body) if s.kind == "store"][0]
    assert store.array == "cur"


def test_pointer_from_scalar_rejected():
    with pytest.raises(LoweringError, match="initialized from an array"):
        compile_source("void k(int n) { int* restrict p = n; }")


def test_pointer_arithmetic_rejected():
    with pytest.raises(LoweringError, match="array parameter"):
        compile_source("void k(int* restrict a, int n) { a += 1; }")
    with pytest.raises(LoweringError, match="pointer"):
        compile_source(
            "void k(int* restrict a, int n) { int* restrict p = a; p += 1; }"
        )


def test_builtin_constants():
    f = _lower("out[0] = INT_MAX;")
    store = f.body[-1]
    assert store.value == 2**31 - 1


def test_intrinsic_call():
    f = _lower("out[0] = work(a[0]);")
    calls = [s for s in ir.walk(f.body) if s.kind == "call"]
    assert calls and calls[0].func == "work"


def test_early_return_rejected():
    with pytest.raises(LoweringError, match="early return"):
        _lower("if (n > 0) { return; } out[0] = 1;")


def test_trailing_return_allowed():
    f = _lower("out[0] = 1; return;")
    assert f.body[-1].kind == "store"


def test_return_value_rejected():
    with pytest.raises(LoweringError, match="void"):
        compile_source("int k(int n) { return n; }")


def test_undeclared_identifier():
    with pytest.raises(LoweringError, match="undeclared"):
        _lower("out[0] = mystery;")


def test_multiple_functions_need_name():
    src = "void a() {} void b() {}"
    with pytest.raises(LoweringError, match="multiple functions"):
        compile_source(src)
    assert compile_source(src, name="b").name == "b"


def test_float_kernels():
    src = """
    void axpy(const double* restrict x, double* restrict y, int n, double alpha) {
      for (int i = 0; i < n; i++) {
        y[i] = y[i] + alpha * x[i];
      }
    }
    """
    f = compile_source(src)
    assert f.arrays["x"].is_float
    assert f.scalar_params == ["n", "alpha"]


def test_verifies_output():
    # Every lowered function passes the IR verifier by construction.
    f = _lower("for (int i = 0; i < n; i++) { out[i] = a[i] * 2; }")
    assert ir.verify_function(f)
