"""The pipeline's one dataflow order, over every golden and fuzzed pipeline.

``PipelineProgram.topo_order`` is what the diagram and the performance model
read. Whatever a compile or a hand-built variant produces, it lists each
stage and RA once, and it places a queue's producer before its consumer
unless a queue cycle reaches either end (those nodes trail in declaration
order). The reference here reads the queues directly, not
``successors()``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompileOptions, compile_function
from repro.errors import PhloemError
from repro.frontend import compile_source
from tests.core.test_golden_compile import CASES
from tests.test_compiler_fuzz import kernels, pass_subsets


def _reached_by_cycle(pipeline):
    """Nodes on a queue cycle, and every node one of them feeds."""
    succs = {}
    for spec in pipeline.queues.values():
        succs.setdefault(spec.producer, set()).add(spec.consumer)

    def reach(node):
        seen, todo = set(), list(succs.get(node, ()))
        while todo:
            other = todo.pop()
            if other not in seen:
                seen.add(other)
                todo.extend(succs.get(other, ()))
        return seen

    reaches = {node: reach(node) for node in succs}
    on_cycle = {node for node, seen in reaches.items() if node in seen}
    return on_cycle.union(*(reaches[node] for node in on_cycle))


def check_order(pipeline):
    order = pipeline.topo_order()
    nodes = [("stage", s.index) for s in pipeline.stages] + [("ra", r.raid) for r in pipeline.ras]
    assert len(order) == len(set(order))
    assert sorted(order) == sorted(nodes)
    position = {node: pos for pos, node in enumerate(order)}
    cyclic = _reached_by_cycle(pipeline)
    for spec in pipeline.queues.values():
        ends = (spec.producer, spec.consumer)
        if any(end in cyclic or end not in position for end in ends):
            continue
        assert position[spec.producer] < position[spec.consumer], spec


@pytest.mark.parametrize("case", list(CASES))
def test_golden_pipeline_order(case):
    try:
        pipeline = CASES[case]()
    except PhloemError:
        return
    check_order(pipeline)


@settings(max_examples=25, deadline=None)
@given(kernels(), pass_subsets(), st.integers(1, 4))
def test_fuzzed_pipeline_order(source, passes, num_stages):
    options = CompileOptions(num_stages=num_stages, passes=passes)
    try:
        pipeline = compile_function(compile_source(source), options=options)
    except PhloemError:
        return
    check_order(pipeline)
