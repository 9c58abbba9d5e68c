"""Table IV/V substitutes: the named inputs keep their statistical identity."""

from repro.workloads import datasets


def test_training_inputs_smaller_than_tests():
    train_m = max(g.build().m for g in datasets.TRAIN_GRAPHS)
    test_m = min(g.build().m for g in datasets.TEST_GRAPHS)
    assert train_m < test_m


def test_graphs_cached():
    g = datasets.graph_by_name("coauthors")
    assert g.build() is g.build()


def test_road_class_low_degree():
    road = datasets.graph_by_name("road-usa").build()
    assert road.avg_degree < 4.0  # Table IV: road networks ~2.4-2.8


def test_internet_class_higher_degree():
    skitter = datasets.graph_by_name("skitter").build()
    road = datasets.graph_by_name("road-usa").build()
    assert skitter.avg_degree > road.avg_degree  # Table IV ordering


def test_mesh_class_uniform():
    mesh = datasets.graph_by_name("hugetrace").build()
    degrees = [mesh.degree(v) for v in range(mesh.n)]
    assert max(degrees) <= 6


def test_spmm_matrices_ordering():
    """Table V sorts by avg nnz/row: gnutella < amazon < cage12 < rma10."""
    names = ["gnutella", "amazon", "cage12", "rma10"]
    nnz = [datasets.matrix_by_name(n).build().avg_nnz_per_row for n in names]
    assert nnz == sorted(nnz)


def test_taco_matrices_ordering():
    names = ["scircuit", "cop20k", "pwtk", "cant"]
    nnz = [datasets.matrix_by_name(n).build().avg_nnz_per_row for n in names]
    assert nnz == sorted(nnz)


def test_unknown_names_raise():
    import pytest

    with pytest.raises(KeyError):
        datasets.graph_by_name("facebook")
    with pytest.raises(KeyError):
        datasets.matrix_by_name("bogus")


def test_domains_recorded():
    assert datasets.graph_by_name("road-usa").domain == "road network"
    assert datasets.matrix_by_name("cant").domain == "cantilever"


def test_a_dropped_input_is_collected_with_what_it_built():
    """A daemon makes one ``Input`` per ``demo`` request: once the request
    drops it, neither the input nor its graph may stay alive."""
    import gc
    import weakref

    class Built:  # a graph stand-in that can be weakly referenced
        pass

    item = datasets.Input("demo", "synthetic", Built)
    built = item.build()
    assert item.build() is built
    refs = [weakref.ref(item), weakref.ref(built)]
    del item, built
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
