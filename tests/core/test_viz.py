"""ASCII pipeline diagrams."""

from repro.core import CompileOptions, ascii_diagram, compile_function
from repro.core.compiler import ALL_PASSES
from repro.workloads import bfs


def test_bfs_diagram_chain():
    pipe = compile_function(bfs.function(), options=CompileOptions(num_stages=4, passes=ALL_PASSES))
    text = ascii_diagram(pipe)
    lines = text.splitlines()
    assert lines[0] == "pipeline bfs"
    assert "RA0 indirect @nodes" in text
    assert "RA1 scan @edges" in text
    assert "update]" in text
    # Topological: the fetch stage appears before the update stage.
    assert text.index("fetch_nodes") < text.index("update")


def test_serial_diagram():
    pipe = compile_function(bfs.function(), options=CompileOptions(num_stages=1, passes=()))
    text = ascii_diagram(pipe)
    assert "bfs]" in text or "update" in text or "[0:" in text


def test_q_only_diagram_has_all_queues():
    pipe = compile_function(bfs.function(), options=CompileOptions(num_stages=4, passes=()))
    text = ascii_diagram(pipe)
    for qid in pipe.queues:
        assert "q%d" % qid in text
