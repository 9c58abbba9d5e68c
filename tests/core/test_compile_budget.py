"""Work budget of a cold compile.

Over the 84 ``compile_sweep`` configurations (the ten shipped workloads and
the four Taco kernels x 2, 3 and 4 stages x all passes or none), each one
lexed, parsed, compiled, sanitized, advised and emitted from its source, this
counts two things: the statements ``ir.stmts.walk`` yields (``all_stmts``
included) and the ``DefUse`` tables built. Both are deterministic, so a
per-queue or per-round rescan that comes back fails here rather than on a
wall clock.

Print the counts with::

    PYTHONPATH=src python tests/core/test_compile_budget.py
"""

import sys

import pytest

from repro.analysis.defs import DefUse
from repro.analysis.perfmodel import perf_advisories
from repro.analysis.sanitize import sanitize_pipeline
from repro.core import CompileOptions, compile_function, emit_pipeline
from repro.errors import PhloemError
from repro.frontend.lowering import compile_source
from repro.ir import stmts
from repro.taco import kernels
from repro.workloads import ALL_BENCHMARKS

#: Statements yielded by ``walk``: 407 035 before a compile read each stage
#: once per question. Since then the sanitizer indexes each stage once per
#: call (every (stage, queue) question walked the stage, and its race check
#: walked it again for alias classes), dead-queue removal walks every stage
#: once per round (it walked them once per queue), ``remove_dead_code``
#: counts uses once (it re-collected them every round), ``cleanup_stage``
#: skips its second DCE when pruning removed nothing, a split finds its
#: breaks and continues once (each keep computation walked the body for
#: them), the alias check reads the slice (it walked the body after a full
#: classification), and decoupling numbers, tables and checks the function
#: body once for all its retries (it did so per split attempt): 151 628.
#: The performance model then read each consumed queue's dequeue depth from
#: its one nest walk per stage (it walked the stage again per queue):
#: 137 314, budget 137 314 * 1.05.
WALK_BUDGET = 144179

#: ``DefUse`` constructions: 1 236 before, two per split attempt (the
#: splitter's and ``pure_regs``'s); 642 with one per split attempt on a
#: consumer body and one per compile for all attempts on the function body,
#: budget 642 * 1.05.
DEFUSE_BUDGET = 674


def _sources():
    sources = [module.SOURCE for _, module in sorted(ALL_BENCHMARKS.items())]
    for make in (
        kernels.spmv_kernel,
        kernels.residual_kernel,
        kernels.mtmul_kernel,
        kernels.sddmm_kernel,
    ):
        sources.append(make().source)
    return sources


def _configs():
    for source in _sources():
        for stages in (2, 3, 4):
            yield source, CompileOptions(num_stages=stages)
            yield source, CompileOptions(num_stages=stages, passes=())


def _compile(source, options):
    try:
        pipeline = compile_function(compile_source(source), options=options)
    except PhloemError:
        return
    sanitize_pipeline(pipeline)
    perf_advisories(pipeline)
    emit_pipeline(pipeline)


def measure(patch):
    """``(walk yields, DefUse constructions)`` over the 84 configurations.

    ``patch`` is a ``setattr(obj, name, value)`` that is undone afterwards;
    every loaded module holding ``stmts.walk`` gets the counting copy.
    """
    configs = list(_configs())
    _compile(*configs[0])  # import every module a compile loads, then patch
    counts = {"walk": 0, "defuse": 0}
    original_walk = stmts.walk
    original_init = DefUse.__init__

    def walk(body):
        for stmt in body:
            counts["walk"] += 1
            yield stmt
            for block in stmt.blocks():
                yield from walk(block)

    def init(self, *args, **kwargs):
        counts["defuse"] += 1
        original_init(self, *args, **kwargs)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("repro") and getattr(module, "walk", None) is original_walk:
            patch(module, "walk", walk)
    patch(DefUse, "__init__", init)
    for source, options in configs:
        _compile(source, options)
    return len(configs), counts["walk"], counts["defuse"]


def test_a_cold_compile_reads_each_stage_once_per_question(monkeypatch):
    configs, walked, defuses = measure(monkeypatch.setattr)
    assert configs == 84
    assert walked <= WALK_BUDGET, "walk yielded %d statements (budget %d)" % (walked, WALK_BUDGET)
    assert defuses <= DEFUSE_BUDGET, "%d DefUse tables built (budget %d)" % (defuses, DEFUSE_BUDGET)


if __name__ == "__main__":
    patch = pytest.MonkeyPatch()
    try:
        print("configs %d, walk yields %d, DefUse constructions %d" % measure(patch.setattr))
    finally:
        patch.undo()
