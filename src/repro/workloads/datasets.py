"""Named inputs: scaled-down substitutes for the paper's Tables IV and V.

Each entry keeps the *statistical identity* of its namesake — degree
distribution family, avg degree / nnz-per-row, and relative scale — at
sizes a Python-hosted simulator completes in seconds (see DESIGN.md,
substitutions). Training inputs are materially smaller than test inputs,
exactly as in the paper's profile-guided flow.
"""

from . import graphs, matrices


class Input:
    """A named graph or matrix input (Table IV / Table V substitute); the
    builder runs once, on first :meth:`build`, and the built value lives
    and dies with the instance."""

    def __init__(self, name, domain, builder):
        self.name = name
        self.domain = domain
        self._builder = builder
        self._built = None

    def build(self):
        if self._built is None:
            self._built = self._builder()
        return self._built

    def __repr__(self):
        return "Input(%s)" % self.name


#: Training graphs (paper: internet, USA-road-d-NY).
TRAIN_GRAPHS = [
    Input("internet-train", "internet graph", lambda: graphs.power_law(1500, 2, seed=41)),
    Input("road-ny-train", "road network", lambda: graphs.road_network(45, 35, seed=42)),
]

#: Test graphs (paper: coAuthorsDBLP, hugetrace, Freescale1, as-Skitter, USA-road-d).
TEST_GRAPHS = [
    Input("coauthors", "human collaboration", lambda: graphs.power_law(3000, 4, seed=11)),
    Input("hugetrace", "dynamic simulation", lambda: graphs.mesh3d(13, seed=12)),
    Input("freescale", "circuit simulation", lambda: graphs.uniform_random(4000, 5, seed=13)),
    Input("skitter", "internet graph", lambda: graphs.power_law(3500, 6, seed=14)),
    Input("road-usa", "road network", lambda: graphs.road_network(100, 75, seed=15)),
]

#: SpMM training matrices (paper: email-Enron, wiki-Vote).
TRAIN_MATRICES_SPMM = [
    Input("enron-train", "graph as matrix", lambda: matrices.random_matrix(60, 6, seed=21, pattern="powerlaw")),
    Input("wikivote-train", "graph as matrix", lambda: matrices.random_matrix(50, 7, seed=22, pattern="uniform")),
]

#: SpMM test matrices (paper: p2p-Gnutella31, amazon0312, cage12, 2cubes, rma10).
TEST_MATRICES_SPMM = [
    Input("gnutella", "file sharing", lambda: matrices.random_matrix(140, 3, seed=31, pattern="uniform")),
    Input("amazon", "graph as matrix", lambda: matrices.random_matrix(160, 8, seed=32, pattern="powerlaw")),
    Input("cage12", "gel electrophoresis", lambda: matrices.random_matrix(120, 15, seed=33, pattern="banded")),
    Input("2cubes", "electromagnetics", lambda: matrices.random_matrix(110, 16, seed=34, pattern="banded")),
    Input("rma10", "fluid dynamics", lambda: matrices.random_matrix(70, 30, seed=35, pattern="banded")),
]

#: GARDENIA-suite weighted graphs (SSSP): the Table IV substitutes with
#: deterministic integer edge weights in the published uniform / skewed
#: distributions.
SUITE_WEIGHTED_GRAPHS = [
    Input("skitter-w", "internet graph (weighted)", lambda: graphs.with_weights(graphs.power_law(3500, 6, seed=14), max_weight=64, seed=1)),
    Input("road-usa-w", "road network (weighted)", lambda: graphs.with_weights(graphs.road_network(100, 75, seed=15), max_weight=64, seed=2)),
    Input("coauthors-w", "collaboration (weighted)", lambda: graphs.with_weights(graphs.power_law(3000, 4, seed=11), max_weight=64, seed=3, distribution="powerlaw")),
]

#: GARDENIA-suite SpMV matrices (GARDENIA: webbase-1M, shipsec1-like).
TEST_MATRICES_SPMV = [
    Input("webbase", "web crawl", lambda: matrices.random_matrix(3000, 5, seed=61, pattern="powerlaw")),
    Input("shipsec", "ship structure", lambda: matrices.random_matrix(2000, 24, seed=62, pattern="banded")),
]

#: Taco test matrices (paper: scircuit, mac_econ, cop20k_A, pwtk, cant).
TEST_MATRICES_TACO = [
    Input("scircuit", "circuit simulation", lambda: matrices.random_matrix(3400, 6, seed=51, pattern="powerlaw")),
    Input("mac-econ", "economics", lambda: matrices.random_matrix(4100, 6, seed=52, pattern="uniform")),
    Input("cop20k", "particle physics", lambda: matrices.random_matrix(2400, 21, seed=53, pattern="uniform")),
    Input("pwtk", "structural", lambda: matrices.random_matrix(2200, 40, seed=54, pattern="banded")),
    Input("cant", "cantilever", lambda: matrices.random_matrix(1200, 50, seed=55, pattern="banded")),
]


def graph_by_name(name):
    for g in TRAIN_GRAPHS + TEST_GRAPHS + SUITE_WEIGHTED_GRAPHS:
        if g.name == name:
            return g
    raise KeyError(name)


def matrix_by_name(name):
    for m in (
        TRAIN_MATRICES_SPMM + TEST_MATRICES_SPMM + TEST_MATRICES_SPMV + TEST_MATRICES_TACO
    ):
        if m.name == name:
            return m
    raise KeyError(name)
