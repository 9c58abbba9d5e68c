"""Regenerates paper Fig. 13: speedup distribution vs pipeline length.

Expected shape: performance does not grow monotonically with stage count —
an interior optimum exists (too many stages add communication), and SpMM's
distribution stays flat/low.
"""

from repro.bench.experiments import FIGURES


def test_fig13(once, fig9_suites):
    dists = once(FIGURES["fig13"].collect, fig9_suites)
    print(FIGURES["fig13"].render(dists))
    assert "bfs" in dists and "spmv" in dists and "spmm" in dists
    bfs_best = {units: max(s) for units, s in dists["bfs"].items()}
    assert max(bfs_best.values()) > 1.5
    # SpMM never gains much, at any pipeline length (paper Fig. 13).
    spmm_all = [s for speeds in dists["spmm"].values() for s in speeds]
    assert max(spmm_all) < 1.5
