"""Pseudo-C emission."""

from repro.core import CompileOptions, compile_function, emit_pipeline
from repro.core.compiler import ALL_PASSES
from repro.workloads import bfs


def test_emits_all_stages_and_ras():
    pipe = compile_function(bfs.function(), options=CompileOptions(num_stages=4, passes=ALL_PASSES))
    text = emit_pipeline(pipe)
    assert "setup_reference_accelerator" in text
    assert "INDIRECT" in text and "SCAN" in text
    for stage in pipe.stages:
        assert "stage%d_%s" % (stage.index, stage.name) in text


def test_handler_labels_emitted():
    pipe = compile_function(bfs.function(), options=CompileOptions(num_stages=4, passes=ALL_PASSES))
    text = emit_pipeline(pipe)
    assert "setup_control_value_handler" in text
    assert "handler_q" in text


def test_table1_calls_present():
    pipe = compile_function(bfs.function(), options=CompileOptions(num_stages=4, passes=ALL_PASSES))
    text = emit_pipeline(pipe)
    for call in ("enq(", "deq(", "enq_ctrl("):
        assert call in text


def test_c_like_loops():
    pipe = compile_function(bfs.function(), options=CompileOptions(num_stages=4, passes=()))
    text = emit_pipeline(pipe)
    assert "for (int i" in text
    assert "while (true)" in text
    assert "barrier(" in text
