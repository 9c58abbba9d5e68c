"""Property-based tests on the toolchain's core invariants.

Three pillars:

* random straight-line arithmetic kernels: the simulator computes exactly
  what a Python oracle computes;
* random graphs: the fully-optimized compiled BFS/CC pipelines agree with
  pure-Python references (the compiler's end-to-end soundness);
* machine components already covered in their units get cross-checked
  against simple models here.
"""

import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ir
from repro.core import CompileOptions, compile_function
from repro.core.compiler import ALL_PASSES
from repro.pipette import Machine, MachineConfig, RunSpec
from repro.runtime import run_pipeline, run_serial
from repro.workloads import bfs, cc
from repro.workloads.graphs import uniform_random

_OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "min": min,
    "max": max,
}

_op_names = st.sampled_from(sorted(_OPS))
_values = st.integers(-(2**31), 2**31)


@st.composite
def straightline_programs(draw):
    """A random sequence of binary ops over a growing register file."""
    n_inputs = draw(st.integers(1, 4))
    inputs = [draw(_values) for _ in range(n_inputs)]
    n_ops = draw(st.integers(1, 12))
    program = []
    n_regs = n_inputs
    for _ in range(n_ops):
        op = draw(_op_names)
        a = draw(st.integers(0, n_regs - 1))
        b = draw(st.integers(0, n_regs - 1))
        program.append((op, a, b))
        n_regs += 1
    return inputs, program


@settings(max_examples=60, deadline=None)
@given(straightline_programs())
def test_interpreter_matches_python_oracle(case):
    inputs, program = case
    # Oracle.
    regs = list(inputs)
    for op, a, b in program:
        regs.append(_OPS[op](regs[a], regs[b]))
    expected = regs[-1]

    # Simulated.
    b_ = ir.IRBuilder()
    names = []
    for k, v in enumerate(inputs):
        names.append(b_.mov(v, dst="in%d" % k))
    for op, x, y in program:
        names.append(b_.binop(op, names[x], names[y]))
    b_.store("@out", 0, names[-1])
    stage = ir.StageProgram(0, "t", b_.finish())
    pipe = ir.PipelineProgram("t", [stage], [], [], {"out": ir.ArrayDecl("out")}, [])
    res = Machine(MachineConfig()).run(RunSpec(pipe, {"out": [0]}, {}))
    assert res.arrays["out"][0] == expected


@settings(max_examples=8, deadline=None)
@given(
    st.integers(20, 120),
    st.integers(1, 4),
    st.integers(0, 1000),
)
def test_compiled_bfs_correct_on_random_graphs(n, degree, seed):
    graph = uniform_random(n, degree, seed=seed)
    arrays, scalars = bfs.make_env(graph)
    pipe = compile_function(bfs.function(), options=CompileOptions(num_stages=4, passes=ALL_PASSES))
    cfg = MachineConfig()
    result = run_pipeline(pipe, arrays, scalars, config=cfg)
    assert bfs.check(result.arrays, graph)


@settings(max_examples=5, deadline=None)
@given(st.integers(20, 80), st.integers(1, 3), st.integers(0, 1000))
def test_compiled_cc_correct_on_random_graphs(n, degree, seed):
    graph = uniform_random(n, degree, seed=seed)
    arrays, scalars = cc.make_env(graph)
    pipe = compile_function(cc.function(), options=CompileOptions(num_stages=4, passes=ALL_PASSES))
    result = run_pipeline(pipe, arrays, scalars, config=MachineConfig())
    assert cc.check(result.arrays, graph)


@settings(max_examples=10, deadline=None)
@given(st.integers(20, 100), st.integers(1, 4), st.integers(0, 500))
def test_serial_pipeline_equivalence(n, degree, seed):
    """Running serial code as a 1-stage pipeline is exactly the kernel."""
    graph = uniform_random(n, degree, seed=seed)
    arrays, scalars = bfs.make_env(graph)
    result = run_serial(bfs.function(), arrays, scalars, config=MachineConfig())
    assert bfs.check(result.arrays, graph)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 2**31), min_size=1, max_size=30), st.integers(1, 8))
def test_queue_through_machine_preserves_order(values, capacity):
    b0 = ir.IRBuilder()
    for v in values:
        b0.enq(0, v)
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    with b1.for_("i", 0, len(values)):
        x = b1.deq(0)
        b1.store("@out", "i", x)
    s1 = ir.StageProgram(1, "c", b1.finish())
    pipe = ir.PipelineProgram(
        "t",
        [s0, s1],
        [ir.QueueSpec(0, ("stage", 0), ("stage", 1), capacity=capacity)],
        [],
        {"out": ir.ArrayDecl("out")},
        [],
    )
    res = Machine(MachineConfig()).run(RunSpec(pipe, {"out": [0] * len(values)}, {}))
    assert res.arrays["out"] == values
