"""Text budget of the generated stage code.

The stage compiler's timing blocks are instantiated at every simulated
statement, so a line added to one of them is paid ~30 times per stage: in
parser/compile time on a stage-code-store miss, in code-object size, in
host time per simulated micro-op. This pins the total over the ten shipped
kernels, and that what the ledger-cursor invariant removed from the
per-statement text stays out of it.
"""

import pytest

from repro.bench.harness import adapter_for
from repro.core import CompileOptions, compile_function
from repro.pipette import batchpath, stagecode
from repro.runtime import run_pipeline
from repro.workloads.graphs import power_law
from repro.workloads.matrices import random_matrix

BENCHES = ("bfs", "cc", "prd", "radii", "spmm", "sssp", "pr", "tc", "bc", "spmv")

#: Generated lines over the ten static pipelines (default options, default
#: machine) before the per-statement ``ceil`` probe and ROB head check gave
#: way to the two block-level invariants. The rewrite had to fit under it.
LINE_BUDGET = 29051


@pytest.fixture(scope="module")
def stage_sources():
    """bench -> generated source of every stage of its static pipeline."""
    seen = []

    def recording(source):
        seen.append(source)
        return stagecode.stage_function(source)

    patch = pytest.MonkeyPatch()
    patch.setattr(batchpath, "stage_function", recording)
    out = {}
    try:
        for bench in BENCHES:
            adapter = adapter_for(bench)
            if bench in ("spmm", "spmv"):
                data = random_matrix(40, 3, seed=3)
            else:
                data = power_law(40, 3, seed=3)
            arrays, scalars = adapter.env(data)
            pipeline = compile_function(adapter.function(), options=CompileOptions())
            del seen[:]
            result = run_pipeline(pipeline, arrays, scalars, engine="batch")
            # Every stage was expressible: nothing fell back to the interpreter.
            assert result.stage_fallbacks == {}, bench
            assert len(seen) == len(pipeline.stages), bench
            out[bench] = list(seen)
    finally:
        patch.undo()
    return out


def test_generated_text_stays_within_budget(stage_sources):
    total = sum(
        len(source.splitlines()) for sources in stage_sources.values() for source in sources
    )
    assert total <= LINE_BUDGET


def _helper_body(lines, header):
    """Indices of the lines of the nested ``def`` starting with ``header``."""
    (start,) = [i for i, line in enumerate(lines) if line.lstrip().startswith(header)]
    depth = len(lines[start]) - len(lines[start].lstrip())
    end = start + 1
    while len(lines[end]) - len(lines[end].lstrip()) > depth:
        end += 1
    return range(start, end)


def test_ceil_is_only_evaluated_by_resync(stage_sources):
    """An acquire site holds ``lc == ceil(cur)`` as an invariant; the one
    place that computes it is the ``resync`` helper (the prologue only
    binds the name and calls the helper)."""
    for bench, sources in stage_sources.items():
        for source in sources:
            lines = source.splitlines()
            helper = _helper_body(lines, "def resync(")
            users = [i for i, line in enumerate(lines) if "ceil(" in line]
            assert users and all(i in helper for i in users), bench
            # ... and no acquire site compares cycles to find that out.
            assert not any("== lc" in line for line in lines), bench


def test_every_site_that_moves_the_clock_resyncs(stage_sources):
    """The ledger-cursor contract, read off the text: an assignment to
    ``cur`` is either an acquire's own ``cur = t`` (which *is* the
    invariant) or is followed at once by the ``resync`` call."""
    for bench, sources in stage_sources.items():
        for source in sources:
            lines = [line.strip() for line in source.splitlines()]
            for i, line in enumerate(lines):
                if line.startswith("cur = ") and line not in ("cur = t", "cur = ctx.cursor"):
                    assert lines[i + 1] == "lc, ln, t = resync(cur, lc, ln)", (bench, line)
