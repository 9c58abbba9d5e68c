"""Regenerates paper Fig. 14: replicated pipelines on 4 cores.

Expected shape: replicated Phloem pipelines scale well beyond a single
core and beat the 16-thread data-parallel versions on BFS; the
no-distribute ablation collapses (all discovered work lands on one
replica), demonstrating why the data-centric distribute step matters.
"""

from repro.bench.experiments import cells


def test_fig14(figure):
    table = cells(figure("fig14"))  # rows are the 4-replica runs: "<app>-x4"
    for app in ("bfs-x4", "cc-x4", "prd-x4", "radii-x4"):
        assert table[app]["phloem"] > 3.0, app  # scales beyond one core
    assert table["bfs-x4"]["phloem"] > table["bfs-x4"]["data-parallel"]
    assert table["bfs-x4"]["no-distribute"] < 0.5 * table["bfs-x4"]["phloem"]
