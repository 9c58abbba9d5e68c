"""Automatic replication of compiled flat-stream pipelines."""

import pytest
from dataclasses import replace

from repro.core import CompileOptions, compile_function, replicate_pipeline
from repro.core.compiler import ALL_PASSES
from repro.errors import CompileError
from repro.runtime import run_replicated
from repro.workloads import bfs, cc, replicated


@pytest.fixture(scope="module")
def compiled_bfs():
    return compile_function(bfs.function(), options=CompileOptions(num_stages=4, passes=ALL_PASSES))


def test_clone_count_and_meta(compiled_bfs):
    clones = replicate_pipeline(compiled_bfs, 3)
    assert len(clones) == 3
    assert all(c.meta["replicated"] == 3 for c in clones)
    assert clones[0].name.endswith("_repl0")


def test_distribution_statements_present(compiled_bfs):
    from repro.ir import walk

    (clone,) = replicate_pipeline(compiled_bfs, 1)
    kinds = [s.kind for stage in clone.stages for s in stage.all_stmts()]
    assert "enq_dist" in kinds
    assert "enq_ctrl_dist" in kinds
    qid = clone.meta["distributed_queue"]
    # No plain enq remains on the distributed queue.
    plain = [
        s
        for stage in clone.stages
        for s in stage.all_stmts()
        if s.kind == "enq" and s.queue == qid
    ]
    assert not plain


def test_counting_handler_installed(compiled_bfs):
    (clone,) = replicate_pipeline(compiled_bfs, 1)
    qid = clone.meta["distributed_queue"]
    handler = clone.stages[-1].handlers[qid]
    kinds = [s.kind for s in handler]
    assert kinds == ["assign", "assign", "if"]


def test_shared_cells_renamed_per_replica(compiled_bfs):
    clones = replicate_pipeline(compiled_bfs, 2)
    assert any("@0" in v for v in clones[0].shared_vars)
    assert any("@1" in v for v in clones[0].shared_vars)
    from repro.ir import walk

    writes0 = [
        s.var
        for stage in clones[0].stages
        for s in stage.all_stmts()
        if s.kind == "write_shared"
    ]
    assert all(v.endswith("@0") for v in writes0)


def test_non_flat_pipeline_rejected():
    pipe = compile_function(cc.function(), options=CompileOptions(num_stages=4, passes=ALL_PASSES))
    with pytest.raises(CompileError, match="flat distributable stream"):
        replicate_pipeline(pipe, 2)


def test_end_to_end_correct(compiled_bfs, micro_graph, tiny_config):
    config = replace(tiny_config, cores=2)
    clones = replicate_pipeline(compiled_bfs, 2)
    envs = replicated.make_envs("bfs", micro_graph, 2)
    result = run_replicated(
        [(clones[r], envs[r][0], envs[r][1], r) for r in range(2)], config
    )
    assert result.arrays["distances"] == bfs.reference(micro_graph)


def test_replicate_pragma_recorded(micro_graph, tiny_config):
    """#pragma replicate flows from source to the compiled pipeline's meta,
    and the requested replicas run correctly end to end."""
    from dataclasses import replace

    source = bfs.SOURCE.replace("#pragma phloem", "#pragma phloem\n#pragma replicate 2")
    from repro.frontend import compile_source

    function = compile_source(source)
    assert function.pragmas["replicate"] == 2
    pipeline = compile_function(function, options=CompileOptions(num_stages=4, passes=ALL_PASSES))
    assert pipeline.meta["replicate"] == 2
    clones = replicate_pipeline(pipeline, pipeline.meta["replicate"])
    envs = replicated.make_envs("bfs", micro_graph, 2)
    config = replace(tiny_config, cores=2)
    result = run_replicated(
        [(clones[r], envs[r][0], envs[r][1], r) for r in range(2)], config
    )
    assert result.arrays["distances"] == bfs.reference(micro_graph)
