"""Property tests: random mini-C expressions and loops agree with a Python oracle.

Exercises the lexer, parser, lowering, and interpreter end to end on
generated source text — the closest thing to differential testing against
a real C compiler that an offline environment allows. The generator
produces an expression *tree* (or a loop body of statements) rendered
twice: once as C (compiled and simulated) and once as Python (evaluated
directly, under C's evaluation order).
"""

from functools import partial

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.frontend import compile_source
from repro.ir import serial_pipeline
from repro.pipette import Machine, MachineConfig, RunSpec

_PARAMS = ["p0", "p1", "p2"]


@st.composite
def expr_trees(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return ("var", draw(st.sampled_from(_PARAMS)))
        return ("const", draw(st.integers(-50, 50)))
    kind = draw(st.sampled_from(["+", "-", "*", "<", ">", "<=", ">=", "==", "!=", "?:", "neg", "!"]))
    if kind == "?:":
        return (
            "?:",
            draw(expr_trees(depth=depth + 1)),
            draw(expr_trees(depth=depth + 1)),
            draw(expr_trees(depth=depth + 1)),
        )
    if kind in ("neg", "!"):
        return (kind, draw(expr_trees(depth=depth + 1)))
    return (kind, draw(expr_trees(depth=depth + 1)), draw(expr_trees(depth=depth + 1)))


def render_c(tree):
    tag = tree[0]
    if tag == "var":
        return tree[1]
    if tag == "const":
        return "(%d)" % tree[1]
    if tag == "?:":
        return "((%s) ? (%s) : (%s))" % tuple(render_c(t) for t in tree[1:])
    if tag == "neg":
        return "(-(%s))" % render_c(tree[1])
    if tag == "!":
        return "(!(%s))" % render_c(tree[1])
    return "((%s) %s (%s))" % (render_c(tree[1]), tag, render_c(tree[2]))


def eval_tree(tree, env):
    tag = tree[0]
    if tag == "var":
        return env[tree[1]]
    if tag == "const":
        return tree[1]
    if tag == "?:":
        return eval_tree(tree[2], env) if eval_tree(tree[1], env) else eval_tree(tree[3], env)
    if tag == "neg":
        return -eval_tree(tree[1], env)
    if tag == "!":
        return 0 if eval_tree(tree[1], env) else 1
    a = eval_tree(tree[1], env)
    b = eval_tree(tree[2], env)
    if tag == "+":
        return a + b
    if tag == "-":
        return a - b
    if tag == "*":
        return a * b
    return int(
        {"<": a < b, ">": a > b, "<=": a <= b, ">=": a >= b, "==": a == b, "!=": a != b}[tag]
    )


@settings(max_examples=80, deadline=None)
@given(expr_trees(), st.integers(-100, 100), st.integers(-100, 100), st.integers(-100, 100))
def test_expression_matches_python(tree, p0, p1, p2):
    env = {"p0": p0, "p1": p1, "p2": p2}
    source = """
    void k(int* restrict out, int p0, int p1, int p2) {
      out[0] = %s;
    }
    """ % render_c(tree)
    function = compile_source(source)
    machine = Machine(MachineConfig())
    result = machine.run(RunSpec(serial_pipeline(function), {"out": [0]}, env))
    assert result.arrays["out"][0] == eval_tree(tree, env)


@settings(max_examples=30, deadline=None)
@given(expr_trees(), st.integers(-20, 20), st.integers(-20, 20))
def test_expression_in_branch_condition(tree, p0, p1):
    """The same trees drive if-conditions (C truthiness semantics)."""
    env = {"p0": p0, "p1": p1, "p2": 7}
    source = """
    void k(int* restrict out, int p0, int p1, int p2) {
      if (%s) {
        out[0] = 1;
      } else {
        out[0] = 2;
      }
    }
    """ % render_c(tree)
    function = compile_source(source)
    machine = Machine(MachineConfig())
    result = machine.run(RunSpec(serial_pipeline(function), {"out": [0]}, env))
    expected = 1 if eval_tree(tree, env) else 2
    assert result.arrays["out"][0] == expected


# -- statements: side effects in conditions and initializers ----------------
#
# A side effect is ``(var, form, k)`` on the loop bound ``n`` or on ``x``:
# ``var++``/``var--`` (form "post", k = +-1), ``++var``/``--var`` ("pre"),
# or ``(var = var + k)`` ("set"). ``n`` only ever shrinks, so ``out[i]``
# stays in bounds; a ``while`` condition only ever shrinks its variable, so
# the ``while`` ends.
#
# The bound ``n`` is spelled one way where the loop header reads it and one
# way where the body writes it (:data:`BOUNDS`): the scalar ``n``, or element
# 0 of the array ``len`` (which starts at ``n``), directly or through the
# pointer local ``p = len``. Mini-C takes an element assignment as a
# statement only, so an array bound changes by ``++``/``--`` alone.

BOUNDS = [
    ("n", "n"),
    ("len[0]", "len[0]"),
    ("len[0]", "p[0]"),
    ("p[0]", "len[0]"),
    ("p[0]", "p[0]"),
]


@st.composite
def side_effects(draw, shrinking=False, array_bound=False):
    var = draw(st.sampled_from(["n", "x"]))
    forms = ["post", "pre"] if array_bound and var == "n" else ["post", "pre", "set"]
    form = draw(st.sampled_from(forms))
    if form == "set":
        k = draw(st.integers(-3, -1) if shrinking or var == "n" else st.integers(-3, 3))
    else:
        k = -1 if shrinking or var == "n" else draw(st.sampled_from([-1, 1]))
    return (var, form, k)


@st.composite
def loops(draw):
    """A :data:`BOUNDS` entry and 1-3 statements, each hiding a side effect
    in a condition or initializer."""
    bound = draw(st.sampled_from(BOUNDS))
    effects = partial(side_effects, array_bound=bound != ("n", "n"))
    body = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["if", "while", "decl"]))
        if kind == "while":
            body.append(("while", draw(effects(shrinking=True)), draw(st.integers(-5, 5))))
        elif kind == "if":
            body.append(("if", draw(effects()), draw(st.integers(-5, 5)), draw(st.integers(-3, 3))))
        else:
            body.append(("decl", draw(effects())))
    return bound, body


def render_effect(effect, bound="n"):
    var, form, k = effect
    if var == "n":
        var = bound
    if form == "set":
        return "(%s = %s + (%d))" % (var, var, k)
    op = "++" if k > 0 else "--"
    return op + var if form == "pre" else var + op


def eval_effect(effect, env):
    var, form, k = effect
    old = env[var]
    env[var] = old + k
    return old if form == "post" else env[var]


def render_stmt(stmt, j, bound):
    effect = render_effect(stmt[1], bound)
    if stmt[0] == "if":
        return "if (%s > (%d)) { x = x + (%d); }" % (effect, stmt[2], stmt[3])
    if stmt[0] == "while":
        return "while (%s > (%d)) { w = w + 1; }" % (effect, stmt[2])
    return "int t%d = %s; s = s + t%d;" % (j, effect, j)


def run_body(body, n, x):
    """The ``out`` C computes for :func:`loop_source`, evaluated in Python."""
    env = {"n": n, "x": x, "w": 0, "s": 0}
    out = [0] * n
    i = 0
    while i < env["n"]:
        for stmt in body:
            if stmt[0] == "if":
                if eval_effect(stmt[1], env) > stmt[2]:
                    env["x"] += stmt[3]
            elif stmt[0] == "while":
                while eval_effect(stmt[1], env) > stmt[2]:
                    env["w"] += 1
            else:
                env["s"] += eval_effect(stmt[1], env)
        out[i] = env["x"] + env["w"] + env["s"]
        i += 1
    return out


def loop_source(bound, body):
    read, write = bound
    return """
    void k(int* restrict out, int* restrict len, int n, int x) {
      int* p = len;
      int w = 0;
      int s = 0;
      for (int i = 0; i < %s; i++) {
        %s
        out[i] = x + w + s;
      }
    }
    """ % (read, "\n        ".join(render_stmt(stmt, j, write) for j, stmt in enumerate(body)))


@settings(max_examples=80, deadline=None)
@given(loops(), st.integers(1, 8), st.integers(-6, 6))
# C re-reads the bound every iteration: a body that decrements it once per
# iteration, through the array or a pointer naming it, stops the loop halfway.
@example(loop=(("len[0]", "len[0]"), [("decl", ("n", "post", -1))]), n=8, x=0)
@example(loop=(("len[0]", "p[0]"), [("decl", ("n", "pre", -1))]), n=8, x=0)
def test_loop_with_effects_in_conditions_matches_python(loop, n, x):
    bound, body = loop
    function = compile_source(loop_source(bound, body))
    machine = Machine(MachineConfig())
    arrays = {"out": [0] * n, "len": [n]}
    result = machine.run(RunSpec(serial_pipeline(function), arrays, {"n": n, "x": x}))
    assert result.arrays["out"] == run_body(body, n, x)
