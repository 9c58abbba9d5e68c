"""Compiler fuzzing: random structured kernels survive every pass subset.

Generates irregular mini-C kernels of the shape the compiler targets —
sequential scans, indirections, filters, reductions, scatter stores — and
checks that compiled pipelines (random stage counts and pass subsets)
produce exactly the serial kernel's memory state. This is the strongest
soundness property in the repository after the per-benchmark oracles.
"""

import random as pyrandom

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompileOptions, compile_function
from repro.core.compiler import ALL_PASSES
from repro.errors import PhloemError
from repro.frontend import compile_source
from repro.pipette import MachineConfig
from repro.runtime import run_pipeline, run_serial

N = 60  # elements per array: tiny inputs keep each example fast


@st.composite
def kernels(draw):
    """A random kernel: scan a[], optionally chase through idx[], filter,
    then reduce or scatter into out[]."""
    use_filter = draw(st.booleans())
    chase_depth = draw(st.integers(0, 2))
    reduce_out = draw(st.booleans())
    use_div = draw(st.booleans())
    threshold = draw(st.integers(-5, 5))
    scale = draw(st.integers(1, 3))

    body = []
    body.append("int v = a[i];")
    for level in range(chase_depth):
        body.append("v = idx[v];")
    inner = []
    if reduce_out:
        # Truncating integer division is the PageRank share shape.
        op = "/" if use_div else "*"
        inner.append("acc = acc + v %s %d;" % (op, scale))
    else:
        inner.append("out[v] = out[v] + %d;" % scale)
    if use_filter:
        work = "if (v > %d) { %s }" % (threshold, " ".join(inner))
    else:
        work = " ".join(inner)
    body.append(work)

    source = """
    void k(const int* restrict a, const int* restrict idx,
           int* restrict out, int n) {
      int acc = 0;
      for (int i = 0; i < n; i++) {
        %s
      }
      out[0] = out[0] + acc;
    }
    """ % "\n        ".join(body)
    return source


@st.composite
def pass_subsets(draw):
    keep = [p for p in ALL_PASSES if draw(st.booleans())]
    return tuple(keep)


def _env(seed):
    rng = pyrandom.Random(seed)
    return {
        "a": [rng.randrange(N) for _ in range(N)],
        "idx": [rng.randrange(N) for _ in range(N)],
        "out": [0] * N,
    }


@settings(max_examples=25, deadline=None)
@given(kernels(), pass_subsets(), st.integers(1, 4), st.integers(0, 10_000))
def test_compiled_equals_serial(source, passes, num_stages, seed):
    function = compile_source(source)
    config = MachineConfig()
    arrays = _env(seed)
    scalars = {"n": N}
    serial = run_serial(function, arrays, scalars, config=config)
    try:
        pipeline = compile_function(
            function,
            options=CompileOptions(num_stages=num_stages, passes=passes),
        )
    except PhloemError:
        return  # an unsplittable shape is allowed to be rejected, not miscompiled
    result = run_pipeline(pipeline, arrays, scalars, config=config)
    assert result.arrays["out"] == serial.arrays["out"], (source, passes, num_stages)


@settings(max_examples=20, deadline=None)
@given(kernels(), pass_subsets(), st.integers(1, 4), st.integers(0, 10_000))
def test_engines_match_reference_interpreter(source, passes, num_stages, seed):
    """Differential fuzzing of the execution engines.

    Whatever pipeline the compiler produces, the closure-compiled fast path
    and the batch-advance whole-stage compiler must agree with the
    reference interpreter on *time*, not just memory: final arrays, total
    cycles, and every ``SimStats.summary()`` field. Hypothesis shrinks the
    kernel on the first divergence, so a failure lands as a minimal
    irregular program plus the pass subset that built the offending
    pipeline, tagged with the engine that diverged.
    """
    from repro.pipette import ENGINES

    function = compile_source(source)
    config = MachineConfig()
    arrays = _env(seed)
    scalars = {"n": N}
    try:
        pipeline = compile_function(
            function,
            options=CompileOptions(num_stages=num_stages, passes=passes),
        )
    except PhloemError:
        return
    oracle = run_pipeline(pipeline, arrays, scalars, config=config, engine="reference")
    for engine in ENGINES:
        if engine == "reference":
            continue
        result = run_pipeline(pipeline, arrays, scalars, config=config, engine=engine)
        label = (engine, source, passes, num_stages)
        assert result.arrays["out"] == oracle.arrays["out"], label
        assert result.cycles == oracle.cycles, label
        assert result.stats.summary() == oracle.stats.summary(), label


PHASED = """
void k(const int* restrict a, const int* restrict idx,
       int* restrict out, int n) {
  int rounds = 3;
  while (rounds > 0) {
    for (int i = 0; i < n; i++) {
      int v = idx[a[i]];
      out[v] = out[v] + rounds;
    }
    rounds = rounds - 1;
  }
}
"""


@pytest.mark.parametrize("num_stages", [2, 3, 4])
def test_phased_kernel_all_stage_counts(num_stages):
    function = compile_source(PHASED)
    config = MachineConfig()
    arrays = _env(99)
    serial = run_serial(function, arrays, {"n": N}, config=config)
    pipeline = compile_function(
        function,
        options=CompileOptions(num_stages=num_stages, passes=ALL_PASSES),
    )
    result = run_pipeline(pipeline, arrays, {"n": N}, config=config)
    assert result.arrays["out"] == serial.arrays["out"]


#: Fixed corpus distilled from the GARDENIA workloads: each entry is one
#: workload's irregular core (bounded relaxation, guarded division push,
#: two-pointer merge, frontier claim, per-row accumulation) reduced to the
#: fuzz harness's uniform ``(a, idx, out, n)`` signature. Values are
#: arbitrary — the property is differential (compiled ≡ serial, engines ≡
#: reference), not semantic.
GARDENIA_CORPUS = {
    "sssp_relax": """
    void k(const int* restrict a, const int* restrict idx,
           int* restrict out, int n) {
      for (int i = 0; i < n; i++) {
        int s = a[i] % 40;
        int e = s + (idx[i] % 5);
        for (int j = s; j < e; j++) {
          int w = idx[j];
          int alt = out[i] + a[j] + 1;
          if (alt > out[w]) {
            out[w] = alt;
          }
        }
      }
    }
    """,
    "pr_push": """
    void k(const int* restrict a, const int* restrict idx,
           int* restrict out, int n) {
      for (int i = 0; i < n; i++) {
        int d = idx[i] % 4;
        if (d > 0) {
          int share = a[i] / d;
          int t = a[idx[i]];
          out[t] = out[t] + share;
        }
      }
    }
    """,
    "tc_merge": """
    void k(const int* restrict a, const int* restrict idx,
           int* restrict out, int n) {
      int count = 0;
      for (int i = 0; i < n; i++) {
        int ka = a[i];
        int kb = idx[i];
        while (ka < n) {
          if (kb >= n) break;
          int va = idx[ka];
          int vb = a[kb];
          if (va == vb) { count = count + 1; ka = ka + 1; kb = kb + 1; }
          if (va < vb) { ka = ka + 1; }
          if (va > vb) { kb = kb + 1; }
        }
      }
      out[0] = out[0] + count;
    }
    """,
    "bc_claim": """
    void k(const int* restrict a, const int* restrict idx,
           int* restrict out, int n) {
      for (int i = 0; i < n; i++) {
        int v = a[i];
        if (out[v] == 0) {
          out[v] = i + 1;
          int w = idx[v];
          if (out[w] == 0) {
            out[w] = i + 1;
          }
        }
      }
    }
    """,
    "spmv_rows": """
    void k(const int* restrict a, const int* restrict idx,
           int* restrict out, int n) {
      for (int i = 0; i < n; i++) {
        int s = a[i] % 40;
        int e = s + (idx[i] % 6);
        int acc = 0;
        for (int j = s; j < e; j++) {
          acc = acc + a[j] * idx[j];
        }
        out[i] = acc;
      }
    }
    """,
}


@pytest.mark.parametrize("num_stages", [2, 4])
@pytest.mark.parametrize("name", sorted(GARDENIA_CORPUS))
def test_gardenia_corpus_kernels(name, num_stages):
    """The workload-derived corpus compiles and conforms on every engine."""
    from repro.pipette import ENGINES

    function = compile_source(GARDENIA_CORPUS[name])
    config = MachineConfig()
    arrays = _env(7)
    serial = run_serial(function, arrays, {"n": N}, config=config)
    pipeline = compile_function(
        function,
        options=CompileOptions(num_stages=num_stages, passes=ALL_PASSES),
    )
    oracle = run_pipeline(
        pipeline, arrays, {"n": N}, config=config, engine="reference"
    )
    assert oracle.arrays["out"] == serial.arrays["out"], name
    for engine in ENGINES:
        if engine == "reference":
            continue
        result = run_pipeline(pipeline, arrays, {"n": N}, config=config, engine=engine)
        assert result.arrays["out"] == oracle.arrays["out"], (name, engine)
        assert result.cycles == oracle.cycles, (name, engine)
        assert result.stats.summary() == oracle.stats.summary(), (name, engine)
