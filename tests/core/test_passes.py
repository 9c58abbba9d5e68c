"""The six passes on BFS: each produces the paper's structures."""

import pytest

from repro import ir
from repro.core import CompileOptions, compile_function
from repro.core.compiler import ALL_PASSES
from repro.workloads import bfs, cc


@pytest.fixture(scope="module")
def bfs_fn():
    return bfs.function()


def _stmts(pipeline):
    return [s for stage in pipeline.stages for s in stage.all_stmts()]


class TestAddQueues:
    def test_q_only_pipeline(self, bfs_fn):
        pipe = compile_function(bfs_fn, options=CompileOptions(num_stages=4, passes=()))
        assert len(pipe.stages) == 4
        assert pipe.ras == []
        kinds = {s.kind for s in _stmts(pipe)}
        assert "enq" in kinds and "deq" in kinds
        assert "enq_ctrl" not in kinds  # no control values yet

    def test_stage_count_respected(self, bfs_fn):
        for n in (1, 2, 3, 4):
            pipe = compile_function(bfs_fn, options=CompileOptions(num_stages=n, passes=()))
            assert len(pipe.stages) == n


class TestControlValues:
    def test_cv_introduces_markers_and_while_loops(self, bfs_fn):
        pipe = compile_function(
            bfs_fn,
            options=CompileOptions(num_stages=4, passes=("recompute", "cv")),
        )
        kinds = [s.kind for s in _stmts(pipe)]
        assert "enq_ctrl" in kinds
        assert "is_control" in kinds
        assert "loop" in kinds  # bounded For became while(true)
        # Bounds queues died: fewer queues than the Q-only pipeline.
        q_only = compile_function(bfs_fn, options=CompileOptions(num_stages=4, passes=()))
        assert len(pipe.queues) < len(q_only.queues)


class TestInterstageDCE:
    def test_dce_hoists_markers(self, bfs_fn):
        cv = compile_function(
            bfs_fn,
            options=CompileOptions(num_stages=4, passes=("recompute", "cv")),
        )
        dce = compile_function(
            bfs_fn,
            options=CompileOptions(num_stages=4, passes=("recompute", "cv", "dce")),
        )
        # After DCE the update stage consumes one flat stream: its body has
        # no counted for-loop around the element loop.
        update = dce.stages[-1]
        fors = [s for s in ir.walk(update.body) if s.kind == "for"]
        assert not fors
        assert dce.meta.get("collapsed_queues")
        assert cv.meta.get("cv_queues")

    def test_done_markers_per_phase(self, bfs_fn):
        dce = compile_function(
            bfs_fn,
            options=CompileOptions(num_stages=4, passes=("recompute", "cv", "dce")),
        )
        dones = [
            s for s in _stmts(dce) if s.kind == "enq_ctrl" and s.ctrl.name == ir.Ctrl.DONE
        ]
        assert dones


class TestHandlers:
    def test_handlers_installed(self, bfs_fn):
        pipe = compile_function(
            bfs_fn,
            options=CompileOptions(num_stages=4, passes=("recompute", "cv", "dce", "handlers")),
        )
        handlers = [h for stage in pipe.stages for h in stage.handlers.values()]
        assert handlers
        # The explicit is_control checks are gone from the handled loops.
        for stage in pipe.stages:
            if stage.handlers:
                body_kinds = [s.kind for s in ir.walk(stage.body)]
                assert "is_control" not in body_kinds


class TestReferenceAccelerators:
    def test_bfs_gets_chained_ras(self, bfs_fn):
        pipe = compile_function(bfs_fn, options=CompileOptions(num_stages=4, passes=ALL_PASSES))
        assert len(pipe.ras) == 2
        by_mode = {ra.mode: ra for ra in pipe.ras}
        assert by_mode[ir.RA_INDIRECT].array == "@nodes"
        assert by_mode[ir.RA_SCAN].array == "@edges"
        # Chained: the indirect RA's output feeds the scan RA.
        assert by_mode[ir.RA_SCAN].in_queue == by_mode[ir.RA_INDIRECT].out_queue

    def test_emptied_stage_dropped(self, bfs_fn):
        pipe = compile_function(bfs_fn, options=CompileOptions(num_stages=4, passes=ALL_PASSES))
        assert len(pipe.stages) == 3  # fetch_edges became the RA chain
        names = [s.name for s in pipe.stages]
        assert names[-1] == "update"

    def test_respects_max_ras(self, bfs_fn):
        pipe = compile_function(
            bfs_fn,
            options=CompileOptions(num_stages=4, passes=ALL_PASSES, max_ras=1),
        )
        assert len(pipe.ras) <= 1


class TestPrefetchStage:
    def test_distances_only_prefetched_upstream(self, bfs_fn):
        """Fig. 4's rule: read-write data is loaded only in its home stage."""
        pipe = compile_function(bfs_fn, options=CompileOptions(num_stages=4, passes=ALL_PASSES))
        update = pipe.stages[-1]
        for stage in pipe.stages:
            for s in stage.all_stmts():
                if s.kind == "load" and s.array == "@distances":
                    assert stage is update
                if s.kind == "prefetch":
                    assert s.array == "@distances"
                    assert stage is not update


class TestCCPipeline:
    def test_cc_labels_stay_home(self):
        pipe = compile_function(
            cc.function(),
            options=CompileOptions(num_stages=4, passes=ALL_PASSES),
        )
        update = pipe.stages[-1]
        for stage in pipe.stages:
            for s in stage.all_stmts():
                if s.kind in ("load", "store") and s.array == "@labels":
                    assert stage is update


def test_meta_records_provenance(bfs_fn):
    pipe = compile_function(bfs_fn, options=CompileOptions(num_stages=4, passes=ALL_PASSES))
    assert pipe.meta["pass_set"] == list(ALL_PASSES)
    assert pipe.meta["requested_stages"] == 4
    assert pipe.meta["points"]


def test_unknown_pass_rejected(bfs_fn):
    from repro.errors import CompileError

    with pytest.raises(CompileError, match="unknown pass"):
        compile_function(bfs_fn, options=CompileOptions(passes=("vectorize",)))
