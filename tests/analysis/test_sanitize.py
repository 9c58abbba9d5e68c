"""The static pipeline-safety analyzer.

Two halves mirror the analyzer's contract:

* a table of known-bad pipelines/kernels, each asserting the *exact*
  stable diagnostic code (and span, when the statements carry one) the
  analyzer must report;
* a lint-clean sweep: every shipped benchmark kernel, every hand-written
  manual pipeline, and the example kernels produce zero findings, and
  ``--verify-each`` compilation adds no failures.
"""

import pytest

from repro import ir
from repro.analysis.sanitize import (
    CONFLICTING,
    READ_ONLY,
    SINGLE_WRITER,
    TOP,
    _max_burst,
    body_effects,
    classify_cross_stage,
    lint_source,
    sanitize_pipeline,
)
from repro.diag import Span
from repro.errors import SanitizeError


def _pipe(stages, queues, arrays=None, shared=(), meta=None):
    arrays = arrays if arrays is not None else {"a": ir.ArrayDecl("a")}
    return ir.PipelineProgram(
        "p", stages, queues, [], arrays, ["n"], shared_vars=shared, meta=meta
    )


def _q(qid, prod, cons, capacity=24):
    return ir.QueueSpec(qid, prod, cons, capacity=capacity)


# ---------------------------------------------------------------------------
# Known-bad pipelines, one per diagnostic code


def _bad_phl101():
    b0 = ir.IRBuilder()
    b0.at(Span(10))
    with b0.for_("i", 0, 4):
        b0.enq(0, "i")
    s0 = ir.StageProgram(0, "p", b0.finish())
    s1 = ir.StageProgram(1, "c", [ir.Assign("x", "mov", [0])])
    return _pipe([s0, s1], [_q(0, ("stage", 0), ("stage", 1))])


def _bad_phl102():
    s0 = ir.StageProgram(0, "p", [ir.Assign("x", "mov", [0])])
    b1 = ir.IRBuilder()
    with b1.for_("i", 0, 4):
        b1.deq(0)
    s1 = ir.StageProgram(1, "c", b1.finish())
    return _pipe([s0, s1], [_q(0, ("stage", 0), ("stage", 1))])


def _bad_phl103():
    # Consumer terminates on a control value the producer never sends.
    b0 = ir.IRBuilder()
    with b0.for_("i", 0, 4):
        b0.enq(0, "i")
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    b1.at(Span(31))
    with b1.loop():
        v = b1.deq(0)
        c = b1.is_control(v)
        with b1.if_(c):
            b1.break_()
    s1 = ir.StageProgram(1, "c", b1.finish())
    return _pipe([s0, s1], [_q(0, ("stage", 0), ("stage", 1))])


def _bad_phl104():
    # Producer enqueues on one branch arm only; consumer dequeues exactly.
    b0 = ir.IRBuilder()
    with b0.for_("i", 0, 4):
        x = b0.binop("gt", "i", 1)
        b0.at(Span(44))
        with b0.if_(x):
            b0.enq(0, "i")
        b0.at(None)
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    with b1.for_("i", 0, 4):
        b1.deq(0)
    s1 = ir.StageProgram(1, "c", b1.finish())
    return _pipe([s0, s1], [_q(0, ("stage", 0), ("stage", 1))])


def _bad_phl105_exact():
    b0 = ir.IRBuilder()
    b0.at(Span(55))
    with b0.for_("i", 0, 4):
        b0.enq(0, "i")
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    with b1.for_("i", 0, 5):
        b1.deq(0)
    s1 = ir.StageProgram(1, "c", b1.finish())
    return _pipe([s0, s1], [_q(0, ("stage", 0), ("stage", 1))])


def _bad_phl105_rate():
    # Same symbolic loop on both sides, but 1 enqueue vs 2 dequeues per
    # iteration: trip counts cancel, the rates must match.
    b0 = ir.IRBuilder()
    with b0.for_("i", 0, "n"):
        b0.enq(0, "i")
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    with b1.for_("i", 0, "n"):
        b1.deq(0)
        b1.deq(0)
    s1 = ir.StageProgram(1, "c", b1.finish())
    return _pipe([s0, s1], [_q(0, ("stage", 0), ("stage", 1))])


def _bad_phl202():
    # Request-response cycle whose burst (100) exceeds the cycle's total
    # queue credit (4 + 4).
    b0 = ir.IRBuilder()
    with b0.for_("i", 0, 100):
        b0.enq(0, "i")
    with b0.for_("j", 0, 100):
        b0.deq(1)
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    with b1.for_("i", 0, 100):
        v = b1.deq(0)
        b1.enq(1, v)
    s1 = ir.StageProgram(1, "c", b1.finish())
    return _pipe(
        [s0, s1],
        [_q(0, ("stage", 0), ("stage", 1), 4), _q(1, ("stage", 1), ("stage", 0), 4)],
    )


def _bad_phl203():
    # Producer fills q0 (capacity 2) with 8 tokens before feeding q1, but
    # the consumer blocks on q1 first.
    b0 = ir.IRBuilder()
    with b0.for_("i", 0, 8):
        b0.enq(0, "i")
    b0.enq(1, 1)
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    b1.deq(1)
    with b1.for_("j", 0, 8):
        b1.deq(0)
    s1 = ir.StageProgram(1, "c", b1.finish())
    return _pipe(
        [s0, s1],
        [_q(0, ("stage", 0), ("stage", 1), 2), _q(1, ("stage", 0), ("stage", 1), 2)],
    )


def _bad_phl301():
    b0 = ir.IRBuilder()
    b0.at(Span(70))
    b0.store("@a", 0, 1)
    s0 = ir.StageProgram(0, "w1", b0.finish())
    s1 = ir.StageProgram(1, "w2", [ir.Store("@a", 1, 2)])
    return _pipe([s0, s1], [])


def _bad_phl302():
    b0 = ir.IRBuilder()
    b0.at(Span(80))
    b0.load("@a", 0)
    s0 = ir.StageProgram(0, "r", b0.finish())
    s1 = ir.StageProgram(1, "w", [ir.Store("@a", 0, 1)])
    return _pipe([s0, s1], [])


def _bad_phl304():
    s0 = ir.StageProgram(0, "w", [ir.WriteShared("fs", 1)])
    s1 = ir.StageProgram(1, "r", [ir.ReadShared("x", "fs")])
    return _pipe([s0, s1], [], shared=("fs",))


KNOWN_BAD = [
    pytest.param(_bad_phl101, ["PHL101"], 10, id="PHL101-never-consumed"),
    pytest.param(_bad_phl102, ["PHL102"], None, id="PHL102-never-produced"),
    pytest.param(_bad_phl103, ["PHL103"], 31, id="PHL103-missing-sentinel"),
    pytest.param(_bad_phl104, ["PHL104"], 44, id="PHL104-conditional-enq"),
    pytest.param(_bad_phl105_exact, ["PHL105"], 55, id="PHL105-count-mismatch"),
    pytest.param(_bad_phl105_rate, ["PHL105"], None, id="PHL105-rate-mismatch"),
    pytest.param(_bad_phl202, ["PHL201", "PHL202"], None, id="PHL202-infeasible-cycle"),
    pytest.param(_bad_phl203, ["PHL203"], None, id="PHL203-fanin-order"),
    pytest.param(_bad_phl301, ["PHL301"], 70, id="PHL301-write-write"),
    pytest.param(_bad_phl302, ["PHL302"], 80, id="PHL302-read-write"),
    pytest.param(_bad_phl304, ["PHL304"], None, id="PHL304-shared-no-barrier"),
]


class TestKnownBad:
    @pytest.mark.parametrize("build, codes, span_line", KNOWN_BAD)
    def test_exact_codes_and_spans(self, build, codes, span_line):
        diags = sanitize_pipeline(build())
        assert sorted(diags.codes()) == sorted(codes)
        if span_line is not None:
            spanned = [d for d in diags if d.span is not None]
            assert spanned, "expected a source span on the diagnostic"
            assert spanned[0].span.line == span_line
        for d in diags:
            assert d.where or d.span is not None  # always actionable

    def test_compiler_rejects_bad_pipeline(self):
        # The same findings abort compilation when they come out of the
        # always-on compile-time check.
        diags = sanitize_pipeline(_bad_phl105_exact())
        with pytest.raises(SanitizeError) as excinfo:
            diags.raise_if_errors()
        assert "PHL105" in str(excinfo.value)


class TestKnownBadMiniC:
    def test_parse_error_is_phl002(self):
        diags = lint_source("void broken(int n { }", file="k.c")
        (d,) = list(diags)
        assert d.code == "PHL002"
        assert d.span is not None and d.span.file == "k.c"

    @pytest.mark.parametrize("literal", ["0x", "1e+"])
    def test_malformed_number_is_phl002_at_the_literal(self, literal):
        diags = lint_source("void k(int* a) { a[0] = %s; }" % literal, file="k.c")
        (d,) = list(diags)
        assert d.code == "PHL002"
        assert "malformed number" in d.message
        assert (d.span.file, d.span.line, d.span.col) == ("k.c", 1, 25)

    def test_lowering_error_is_phl003(self):
        source = "#pragma phloem\nvoid k(int n) {\n  #pragma phloem\n  n = 1;\n}\n"
        diags = lint_source(source)
        (d,) = list(diags)
        assert d.code == "PHL003"
        assert d.span is not None and d.span.line == 3

    def test_replicated_non_commutative_reduction_is_phl303(self):
        source = (
            "#pragma phloem\n"
            "#pragma replicate 2\n"
            "void k(int n, const int* restrict idx, const int* restrict w,\n"
            "       int* restrict acc) {\n"
            "  for (int i = 0; i < n; i++) {\n"
            "    int j = idx[i];\n"
            "    acc[j] = acc[j] - w[i];\n"
            "  }\n"
            "}\n"
        )
        diags = lint_source(source)
        assert "PHL303" in diags.codes()
        assert not diags.has_errors  # a lint, not a hard error
        d = next(d for d in diags if d.code == "PHL303")
        assert d.span is not None and d.span.line == 7

    def test_commutative_reduction_is_clean(self):
        source = (
            "#pragma phloem\n"
            "#pragma replicate 2\n"
            "void k(int n, const int* restrict idx, const int* restrict w,\n"
            "       int* restrict acc) {\n"
            "  for (int i = 0; i < n; i++) {\n"
            "    int j = idx[i];\n"
            "    acc[j] = acc[j] + w[i];\n"
            "  }\n"
            "}\n"
        )
        assert len(lint_source(source)) == 0


class TestNegativeSpace:
    """Constructs near the bad patterns that must stay clean."""

    def test_prefetch_of_written_array_is_allowed(self):
        # The paper's resolution of the Fig. 4 race: other stages may
        # prefetch a written array, just not load it.
        s0 = ir.StageProgram(0, "pf", [ir.Prefetch("@a", 0)])
        s1 = ir.StageProgram(1, "w", [ir.Store("@a", 0, 1)])
        assert len(sanitize_pipeline(_pipe([s0, s1], []))) == 0

    def test_ctrl_terminated_consumer_with_sentinel_is_clean(self):
        b0 = ir.IRBuilder()
        with b0.for_("i", 0, 4):
            b0.enq(0, "i")
        b0.enq_ctrl(0, "DONE")
        s0 = ir.StageProgram(0, "p", b0.finish())
        b1 = ir.IRBuilder()
        with b1.loop():
            v = b1.deq(0)
            c = b1.is_control(v)
            with b1.if_(c):
                b1.break_()
        s1 = ir.StageProgram(1, "c", b1.finish())
        pipe = _pipe([s0, s1], [_q(0, ("stage", 0), ("stage", 1))])
        assert len(sanitize_pipeline(pipe)) == 0

    def test_handler_forwarding_ctrl_counts_as_sentinel(self):
        # The manual-pipeline idiom: a handler enq's %ctrl downstream.
        b0 = ir.IRBuilder()
        with b0.for_("i", 0, 4):
            b0.enq(0, "i")
        b0.enq_ctrl(0, "DONE")
        s0 = ir.StageProgram(0, "p", b0.finish())
        b1 = ir.IRBuilder()
        with b1.loop():
            v = b1.deq(0)
            b1.enq(1, v)
        s1 = ir.StageProgram(
            1, "f", b1.finish(), handlers={0: [ir.Enq(1, "%ctrl"), ir.Break(1)]}
        )
        b2 = ir.IRBuilder()
        with b2.loop():
            w = b2.deq(1)
            c = b2.is_control(w)
            with b2.if_(c):
                b2.break_()
        s2 = ir.StageProgram(2, "c", b2.finish())
        pipe = _pipe(
            [s0, s1, s2],
            [_q(0, ("stage", 0), ("stage", 1)), _q(1, ("stage", 1), ("stage", 2))],
        )
        assert len(sanitize_pipeline(pipe)) == 0

    def test_feasible_cycle_warns_but_is_not_an_error(self):
        # Lock-step request/response: one token in flight per direction.
        b0 = ir.IRBuilder()
        with b0.for_("i", 0, 4):
            b0.enq(0, "i")
            b0.deq(1)
        s0 = ir.StageProgram(0, "p", b0.finish())
        b1 = ir.IRBuilder()
        with b1.for_("i", 0, 4):
            v = b1.deq(0)
            b1.enq(1, v)
        s1 = ir.StageProgram(1, "c", b1.finish())
        pipe = _pipe(
            [s0, s1],
            [_q(0, ("stage", 0), ("stage", 1), 4), _q(1, ("stage", 1), ("stage", 0), 4)],
        )
        diags = sanitize_pipeline(pipe)
        assert diags.codes() == ["PHL201"]
        assert not diags.has_errors

    def test_shared_cell_across_barrier_is_clean(self):
        s0 = ir.StageProgram(0, "w", [ir.WriteShared("fs", 1), ir.Barrier("phase")])
        s1 = ir.StageProgram(1, "r", [ir.Barrier("phase"), ir.ReadShared("x", "fs")])
        assert len(sanitize_pipeline(_pipe([s0, s1], [], shared=("fs",)))) == 0


class TestAbstractDomain:
    def test_counted_loops_multiply(self):
        b = ir.IRBuilder()
        with b.for_("i", 0, 3):
            with b.for_("j", 0, 5):
                b.enq(0, "j")
        eff = body_effects(b.finish())
        assert eff[0].enq == 15

    def test_breaking_loop_degrades_to_top(self):
        b = ir.IRBuilder()
        with b.for_("i", 0, 3):
            b.enq(0, "i")
            with b.if_(b.binop("gt", "i", 1)):
                b.break_()
        eff = body_effects(b.finish())
        assert eff[0].enq is TOP

    def test_max_burst_resets_on_dequeue(self):
        b = ir.IRBuilder()
        with b.for_("i", 0, 100):
            b.enq(0, "i")
            b.deq(1)
        assert _max_burst(b.finish(), 0, 1) == 2  # tail + next head
        b2 = ir.IRBuilder()
        with b2.for_("i", 0, 100):
            b2.enq(0, "i")
        assert _max_burst(b2.finish(), 0, 1) == 100


class TestClassification:
    def test_classify_cross_stage_verdicts(self):
        b0 = ir.IRBuilder()
        b0.load("@ro", 0)
        b0.store("@own", 0, 1)
        b0.load("@own", 0)
        b0.store("@bad", 0, 1)
        s0 = ir.StageProgram(0, "a", b0.finish())
        b1 = ir.IRBuilder()
        b1.load("@ro", 1)
        b1.prefetch("@own", 1)
        b1.load("@bad", 1)
        s1 = ir.StageProgram(1, "b", b1.finish())
        arrays = {n: ir.ArrayDecl(n) for n in ("ro", "own", "bad")}
        verdicts = classify_cross_stage(_pipe([s0, s1], [], arrays=arrays))
        assert verdicts["@ro"] == READ_ONLY
        assert verdicts["@own"] == SINGLE_WRITER
        assert verdicts["@bad"] == CONFLICTING

    def test_non_restrict_arrays_share_a_class(self):
        arrays = {
            "x": ir.ArrayDecl("x", restrict=False),
            "y": ir.ArrayDecl("y", restrict=False),
        }
        s0 = ir.StageProgram(0, "w", [ir.Store("@x", 0, 1)])
        s1 = ir.StageProgram(1, "r", [ir.Load("v", "@y", 0)])
        diags = sanitize_pipeline(_pipe([s0, s1], [], arrays=arrays))
        assert "PHL302" in diags.codes()
