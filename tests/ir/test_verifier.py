"""IR verifier: each structural invariant accepts/rejects correctly."""

import pytest

from repro import ir
from repro.errors import IRVerificationError


def _func(body, arrays=None, params=("n",)):
    arrays = arrays or {"a": ir.ArrayDecl("a"), "out": ir.ArrayDecl("out")}
    return ir.Function("k", list(params), arrays, body)


class TestFunctionVerifier:
    def test_accepts_valid(self):
        body = [
            ir.Assign("x", "mov", [0]),
            ir.For("i", 0, "n", 1, [ir.Load("v", "@a", "i"), ir.Store("@out", "i", "v")]),
        ]
        assert ir.verify_function(_func(body))

    def test_rejects_undefined_use(self):
        body = [ir.Assign("x", "add", ["ghost", 1])]
        with pytest.raises(IRVerificationError, match="undefined register"):
            ir.verify_function(_func(body))

    def test_rejects_undeclared_array(self):
        body = [ir.Load("v", "@missing", 0)]
        with pytest.raises(IRVerificationError, match="undeclared array"):
            ir.verify_function(_func(body))

    def test_rejects_store_to_const(self):
        arrays = {"a": ir.ArrayDecl("a", readonly=True)}
        body = [ir.Store("@a", 0, 1)]
        with pytest.raises(IRVerificationError, match="const array"):
            ir.verify_function(_func(body, arrays))

    def test_rejects_deep_break(self):
        body = [ir.Loop([ir.Break(2)])]
        with pytest.raises(IRVerificationError, match="break 2"):
            ir.verify_function(_func(body))

    def test_rejects_continue_outside_loop(self):
        with pytest.raises(IRVerificationError, match="continue outside"):
            ir.verify_function(_func([ir.Continue()]))

    def test_loop_var_defined_inside(self):
        body = [ir.For("i", 0, "n", 1, [ir.Assign("x", "add", ["i", 1])])]
        assert ir.verify_function(_func(body))

    def test_rejects_queue_ops_in_serial_function(self):
        # Serial kernels have no queues; enq/deq only make sense after the
        # compiler decouples the kernel into a pipeline.
        for stmt in (ir.Enq(0, "n"), ir.Deq("x", 0), ir.Peek("x", 0)):
            with pytest.raises(IRVerificationError, match="outside a pipeline stage"):
                ir.verify_function(_func([stmt]))

    def test_error_carries_statement_span(self):
        from repro.diag import Span

        stmt = ir.Assign("x", "add", ["ghost", 1])
        stmt.span = Span(12, 3)
        with pytest.raises(IRVerificationError) as excinfo:
            ir.verify_function(_func([stmt]))
        assert excinfo.value.line == 12
        assert excinfo.value.col == 3
        assert "line 12:3" in str(excinfo.value)


def _pipeline(stages, queues, ras=(), arrays=None):
    arrays = arrays or {"a": ir.ArrayDecl("a")}
    return ir.PipelineProgram("p", stages, queues, list(ras), arrays, ["n"])


class TestPipelineVerifier:
    def test_accepts_simple_pair(self):
        s0 = ir.StageProgram(0, "p", [ir.Enq(0, "n")])
        s1 = ir.StageProgram(1, "c", [ir.Deq("x", 0)])
        p = _pipeline([s0, s1], [ir.QueueSpec(0, ("stage", 0), ("stage", 1))])
        assert ir.verify_pipeline(p)

    def test_rejects_wrong_producer(self):
        s0 = ir.StageProgram(0, "p", [ir.Enq(0, "n")])
        s1 = ir.StageProgram(1, "c", [ir.Enq(0, "n")])  # consumer enqueues
        p = _pipeline([s0, s1], [ir.QueueSpec(0, ("stage", 0), ("stage", 1))])
        with pytest.raises(IRVerificationError, match="not the producer"):
            ir.verify_pipeline(p)

    def test_rejects_wrong_consumer(self):
        s0 = ir.StageProgram(0, "p", [ir.Deq("x", 0)])
        s1 = ir.StageProgram(1, "c", [ir.Deq("y", 0)])
        p = _pipeline([s0, s1], [ir.QueueSpec(0, ("stage", 0), ("stage", 1))])
        with pytest.raises(IRVerificationError, match="not the consumer"):
            ir.verify_pipeline(p)

    def test_rejects_undeclared_queue(self):
        s0 = ir.StageProgram(0, "p", [ir.Enq(9, "n")])
        p = _pipeline([s0], [])
        with pytest.raises(IRVerificationError, match="undeclared queue"):
            ir.verify_pipeline(p)

    def test_rejects_undeclared_queue_in_deq_and_handler(self):
        s0 = ir.StageProgram(0, "p", [ir.Enq(0, "n")])
        s1 = ir.StageProgram(
            1, "c", [ir.Deq("x", 0)], handlers={0: [ir.Enq(5, "%ctrl")]}
        )
        p = _pipeline([s0, s1], [ir.QueueSpec(0, ("stage", 0), ("stage", 1))])
        with pytest.raises(IRVerificationError, match="undeclared queue 5"):
            ir.verify_pipeline(p)

    def test_rejects_duplicate_stage_indices(self):
        s0 = ir.StageProgram(0, "p", [ir.Enq(0, "n")])
        s0b = ir.StageProgram(0, "q", [])
        s1 = ir.StageProgram(1, "c", [ir.Deq("x", 0)])
        p = _pipeline([s0, s0b, s1], [ir.QueueSpec(0, ("stage", 0), ("stage", 1))])
        with pytest.raises(IRVerificationError, match="two stages with index 0"):
            ir.verify_pipeline(p)

    def test_rejects_duplicate_ra_ids(self):
        s0 = ir.StageProgram(0, "p", [ir.Enq(0, "n")])
        s1 = ir.StageProgram(1, "c", [ir.Deq("x", 3)])
        queues = [
            ir.QueueSpec(0, ("stage", 0), ("ra", 0)),
            ir.QueueSpec(1, ("ra", 0), ("stage", 1)),
            ir.QueueSpec(2, ("stage", 0), ("ra", 0)),
            ir.QueueSpec(3, ("ra", 0), ("stage", 1)),
        ]
        ras = [
            ir.RASpec(0, ir.RA_INDIRECT, "@a", 0, 1),
            ir.RASpec(0, ir.RA_INDIRECT, "@a", 2, 3),
        ]
        p = _pipeline([s0, s1], queues, ras)
        with pytest.raises(IRVerificationError, match="two RAs with id 0"):
            ir.verify_pipeline(p)

    def test_rejects_ra_with_same_in_and_out_queue(self):
        s0 = ir.StageProgram(0, "p", [ir.Enq(0, "n")])
        queues = [ir.QueueSpec(0, ("stage", 0), ("ra", 0))]
        ras = [ir.RASpec(0, ir.RA_INDIRECT, "@a", 0, 0)]
        p = _pipeline([s0], queues, ras)
        with pytest.raises(IRVerificationError, match="both input and output"):
            ir.verify_pipeline(p)

    def test_rejects_unknown_endpoint(self):
        s0 = ir.StageProgram(0, "p", [])
        p = _pipeline([s0], [ir.QueueSpec(0, ("stage", 0), ("stage", 7))])
        with pytest.raises(IRVerificationError, match="unknown consumer"):
            ir.verify_pipeline(p)

    def test_rejects_queue_limit(self):
        stages = [ir.StageProgram(0, "p", []), ir.StageProgram(1, "c", [])]
        queues = [ir.QueueSpec(q, ("stage", 0), ("stage", 1)) for q in range(17)]
        p = _pipeline(stages, queues)
        with pytest.raises(IRVerificationError, match="machine limit"):
            ir.verify_pipeline(p)

    def test_rejects_ra_limit(self):
        stages = [ir.StageProgram(0, "p", []), ir.StageProgram(1, "c", [])]
        queues = []
        ras = []
        for i in range(5):
            queues.append(ir.QueueSpec(2 * i, ("stage", 0), ("ra", i)))
            queues.append(ir.QueueSpec(2 * i + 1, ("ra", i), ("stage", 1)))
            ras.append(ir.RASpec(i, ir.RA_INDIRECT, "@a", 2 * i, 2 * i + 1))
        p = _pipeline(stages, queues, ras)
        with pytest.raises(IRVerificationError, match="machine limit"):
            ir.verify_pipeline(p)

    def test_ra_wiring_must_match_queues(self):
        s0 = ir.StageProgram(0, "p", [ir.Enq(0, "n")])
        s1 = ir.StageProgram(1, "c", [ir.Deq("x", 1)])
        queues = [
            ir.QueueSpec(0, ("stage", 0), ("ra", 0)),
            ir.QueueSpec(1, ("stage", 0), ("stage", 1)),  # RA not the producer
        ]
        ras = [ir.RASpec(0, ir.RA_INDIRECT, "@a", 0, 1)]
        p = _pipeline([s0, s1], queues, ras)
        with pytest.raises(IRVerificationError, match="not the producer of its output"):
            ir.verify_pipeline(p)

    def test_handler_must_be_on_consumed_queue(self):
        s0 = ir.StageProgram(0, "p", [ir.Enq(0, "n")], handlers={0: [ir.Break(1)]})
        s1 = ir.StageProgram(1, "c", [ir.Deq("x", 0)])
        p = _pipeline([s0, s1], [ir.QueueSpec(0, ("stage", 0), ("stage", 1))])
        with pytest.raises(IRVerificationError, match="handler"):
            ir.verify_pipeline(p)

    def test_handler_may_use_ctrl_register(self):
        s0 = ir.StageProgram(0, "p", [ir.Enq(0, "n")])
        s1 = ir.StageProgram(
            1,
            "c",
            [ir.Loop([ir.Deq("x", 0)])],
            handlers={0: [ir.Enq(1, "%ctrl"), ir.Break(1)]},
        )
        s2 = ir.StageProgram(2, "d", [ir.Deq("y", 1)])
        p = _pipeline(
            [s0, s1, s2],
            [
                ir.QueueSpec(0, ("stage", 0), ("stage", 1)),
                ir.QueueSpec(1, ("stage", 1), ("stage", 2)),
            ],
        )
        assert ir.verify_pipeline(p)

    def test_serial_pipeline_wrapper(self):
        f = ir.Function("k", ["n"], {"a": ir.ArrayDecl("a")}, [ir.Load("v", "@a", 0)])
        p = ir.serial_pipeline(f)
        assert p.num_stages == 1
        assert p.meta["serial"]
        assert ir.verify_pipeline(p)

    def test_num_units_counts_ras(self):
        s0 = ir.StageProgram(0, "p", [ir.Enq(0, "n")])
        s1 = ir.StageProgram(1, "c", [ir.Deq("x", 1)])
        queues = [
            ir.QueueSpec(0, ("stage", 0), ("ra", 0)),
            ir.QueueSpec(1, ("ra", 0), ("stage", 1)),
        ]
        ras = [ir.RASpec(0, ir.RA_INDIRECT, "@a", 0, 1)]
        p = _pipeline([s0, s1], queues, ras)
        assert p.num_units == 3
