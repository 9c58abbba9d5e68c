"""Figure collectors validate every record they yield (on one small input)."""

import pytest

from repro.bench import experiments
from repro.workloads import datasets
from repro.workloads.datasets import Input
from repro.workloads.graphs import uniform_random
from repro.workloads.matrices import random_matrix


@pytest.fixture
def small_inputs(monkeypatch):
    """One 60x6 matrix for Fig. 12 and one 80-vertex graph for the ablation.
    On this matrix the 4-thread mtmul run is not bit-exact with serial: its
    float atomics add in another order."""
    matrix = Input("m60", "test", lambda: random_matrix(60, 6, seed=51))
    graph = Input("g80", "test", lambda: uniform_random(80, 3, seed=1))
    monkeypatch.setattr(datasets, "TEST_MATRICES_TACO", [matrix])
    monkeypatch.setattr(datasets, "graph_by_name", lambda name: graph)


def test_fig12_validates_every_variant(small_inputs):
    records = experiments.fig12_records()
    assert len(records) == 12  # four kernels x serial, data-parallel, phloem-static
    assert all(record["ok"] is True for record in records)


def test_ablation_validates_every_row(small_inputs):
    records = experiments.abl_records()
    assert {record["sweep"] for record in records} == {
        "queue depth",
        "RA parallelism",
        "stride prefetcher",
        "stage placement",
    }
    assert all(record["ok"] is True for record in records)


def test_ablation_rejects_wrong_distances(small_inputs, monkeypatch):
    monkeypatch.setattr(experiments.bfs, "check", lambda arrays, graph: False)
    with pytest.raises(AssertionError, match="wrong distances"):
        experiments.abl_records()


def test_same_output_tolerates_float_order_only():
    assert experiments._same_output([1, 2], [1, 2])
    assert not experiments._same_output([1, 3], [1, 2])
    assert not experiments._same_output([1], [1, 2])
    assert experiments._same_output([0.1 + 0.2], [0.3])
    assert not experiments._same_output([1.0 + 1e-6], [1.0])
