"""Text budget of the generated stage code.

The stage compiler's timing blocks are instantiated at every simulated
statement, so a line added to one of them is paid ~30 times per stage: in
parser/compile time on a stage-code-store miss, in code-object size, in
host time per simulated micro-op. This pins the total over the ten shipped
kernels, and that what the ledger-cursor invariant removed from the
per-statement text — and what ``mem.py`` owns: everything past an L1 hit —
stays out of it.
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
#: machine), with every timing primitive emitted by its one emitter and no
#: per-stage copy of the L1-miss path. 27 846 before the ledger learned to
#: forget: ``resync`` grew by its watermark check and the ``prune`` call,
#: two lines in each of the 27 stages (27 900), and by one more when the
#: sweep learned to write the running thread's clock back first (27 927).
#: The byte window added one line to each of the 533 new-cycle walks (four
#: lines, ``ln = W + 1``, ``t += 1.0`` and the grow check's two, replace
#: three, the unrolled first step's two and ``t = lc + 0.0``) and three to
#: each ``resync`` (``c = ceil(cur)`` and the grow check's two lines):
#: 27 927 + 533 + 3 * 27 = 28 541.
LINE_BUDGET = 28541

#: One more kernel beside the ten: data-parallel ``bfs``, whose workers are
#: the shipped code that runs ``atomic_rmw``.
DP_THREADS = 4


@pytest.fixture(scope="module")
def stage_sources():
    """kernel -> generated source of every stage of its pipeline: the ten
    static pipelines plus ``bfs.dp``."""
    seen = []

    def recording(source):
        seen.append(source)
        return stagecode.stage_function(source)

    patch = pytest.MonkeyPatch()
    patch.setattr(batchpath, "stage_function", recording)
    out = {}
    try:
        for bench in BENCHES + ("bfs.dp",):
            name, _, dp = bench.partition(".")
            adapter = adapter_for(name)
            if bench in ("spmm", "spmv"):
                data = random_matrix(40, 3, seed=3)
            else:
                data = power_law(40, 3, seed=3)
            if dp:
                arrays, scalars = adapter.dp_env(data, DP_THREADS)
                pipeline = adapter.dp_pipeline(DP_THREADS)
            else:
                arrays, scalars = adapter.env(data)
                pipeline = compile_function(adapter.function(), options=CompileOptions())
            del seen[:]
            result = run_pipeline(pipeline, arrays, scalars, engine="batch")
            # Every stage was expressible: nothing fell back to the interpreter.
            assert result.stage_fallbacks == {}, bench
            assert len(seen) == len(pipeline.stages), bench
            if dp:
                # The shape the repo benchmark's dp operations run (the
                # conformance matrix has the static ten and 3 workers).
                oracle = run_pipeline(pipeline, arrays, scalars, engine="reference")
                assert result.stats.summary() == oracle.stats.summary(), bench
            out[bench] = list(seen)
    finally:
        patch.undo()
    return out


def test_generated_text_stays_within_budget(stage_sources):
    total = sum(len(source.splitlines()) for bench in BENCHES for source in stage_sources[bench])
    assert total <= LINE_BUDGET


def test_no_statement_leaves_the_inline_l1_block(stage_sources):
    """Loads, stores, prefetches and atomics all carry the inline L1 hit
    side; none goes through ``MemorySystem.access``, and the one thing
    they call past a hit is ``mem.py``'s ``l1_miss`` (a capture, not text:
    no stage spells out an L2 structure)."""
    assert any("old = " in source for source in stage_sources["bfs.dp"])  # it has atomics
    for bench, sources in stage_sources.items():
        for source in sources:
            assert "mem_access(" not in source, bench
            assert "l2_" not in source and "def l1_miss" not in source, bench


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


def test_the_ledger_forgets_through_resync_and_nothing_rebinds_it(stage_sources):
    """``IssueLedger.prune`` deletes a prefix of the byte window in place:
    the prologue's ``slots``/``grow`` stay valid because nothing assigns
    the names again, and the one generated call sits in ``resync`` — where
    a stage already leaves straight-line code — behind the watermark
    compare, with the window index derived after it (a sweep moves
    ``ledger.base``)."""
    for bench, sources in stage_sources.items():
        for source in sources:
            lines = source.splitlines()
            helper = _helper_body(lines, "def resync(")
            (call,) = [i for i, line in enumerate(lines) if "ledger.prune(" in line]
            assert call in helper, bench
            assert lines[call].strip() == "ledger.prune()", bench
            # The running thread's clock goes back first: prune reads cursors.
            assert lines[call - 1].strip() == "ctx.cursor = cur", bench
            assert lines[call - 2].strip() == "if len(slots) > ledger.mark:", bench
            after = [line.strip() for line in lines[call + 1 : call + 3]]
            assert after == ["c = ceil(cur)", "lc = c - ledger.base"], bench
            for name in ("slots", "grow"):
                assert sum(line.lstrip().startswith(name + " = ") for line in lines) == 1, bench


def test_every_step_of_a_walk_checks_the_window_end(stage_sources):
    """A new-cycle walk steps ``lc`` and ``t`` together and grows the
    window before it reads one byte past its end; no stage probes the
    ledger any other way."""
    for bench, sources in stage_sources.items():
        for source in sources:
            lines = [line.strip() for line in source.splitlines()]
            reads = [i for i, line in enumerate(lines) if line == "ln = slots[lc] + 1"]
            assert reads, bench
            for i in reads:
                assert lines[i - 4 : i] == [
                    "lc += 1",
                    "t += 1.0",
                    "if lc == len(slots):",
                    "grow(lc)",
                ], bench
            assert not any("slots.get" in line or "sget" in line for line in lines), bench
