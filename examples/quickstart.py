"""Quickstart: automatically pipeline the paper's introductory kernel.

The paper opens (Sec. I) with this snippet:

    for (i = 0; i < N; i++)
      if (A[i] > 0)
        work(B[A[i]]);

an unpredictable branch plus an indirect load — serial poison. Phloem
decouples it into `fetch A[i] -> filter -> fetch B[A[i]] -> work()`.
This script compiles that kernel, runs both versions on the simulated
Pipette machine, and prints the pipeline the compiler produced.

Run:  python examples/quickstart.py
"""

import random

from repro import ir
from repro.core import ALL_PASSES, CompileOptions, compile_function, emit_pipeline, pipeline_summary
from repro.frontend import compile_source
from repro.pipette import SCALED_1CORE
from repro.runtime import run_pipeline, run_serial

SOURCE = """
#pragma phloem
void kernel(const int* restrict A, const int* restrict B,
            long* restrict out, int n) {
  long acc = 0;
  for (int i = 0; i < n; i++) {
    int a = A[i];
    if (a > 0) {
      acc = acc + work(B[a]);
    }
  }
  out[0] = acc;
}
"""


def main():
    function = compile_source(SOURCE)
    function.intrinsics["work"] = ir.Intrinsic("work", lambda x: (x * x + 7) % 1000, cost=10)

    rng = random.Random(1)
    n, nb = 20_000, 400_000
    arrays = {
        "A": [rng.randint(-nb + 1, nb - 1) for _ in range(n)],
        "B": [rng.randint(0, 100) for _ in range(nb)],
        "out": [0],
    }
    scalars = {"n": n}

    print("compiling serial kernel into a 4-stage pipeline...")
    pipeline = compile_function(function, options=CompileOptions(num_stages=4, passes=ALL_PASSES))
    print("  ", pipeline_summary(pipeline))
    print()
    print(emit_pipeline(pipeline))
    print()

    serial = run_serial(function, arrays, scalars, config=SCALED_1CORE)
    piped = run_pipeline(pipeline, arrays, scalars, config=SCALED_1CORE)
    assert piped.arrays["out"] == serial.arrays["out"], "pipeline changed the result!"

    print("serial:   %10.0f cycles" % serial.cycles)
    print("pipelined:%10.0f cycles" % piped.cycles)
    print("speedup:  %10.2fx" % (serial.cycles / piped.cycles))


if __name__ == "__main__":
    main()
