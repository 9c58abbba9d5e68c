"""Regenerates paper Fig. 12: Taco benchmark speedups.

Expected shape: Phloem parallelizes SpMV/Residual/MTMul (~1.5x gmean in
the paper) while data parallelism barely helps them; SDDMM inverts — its
regular dense inner loop favors the data-parallel version.
"""

from repro.obs import gmean_speedups


def test_fig12(figure):
    table = gmean_speedups(figure("fig12"))
    for name in ("spmv", "residual", "mtmul"):
        assert table[name]["phloem-static"] > 1.2, name
        assert table[name]["phloem-static"] > table[name]["data-parallel"], name
    # SDDMM: data-parallel wins (paper Sec. VII, Taco results). The
    # collector skips SDDMM above 2 500 rows; QUICK runs it on cant.
    assert table["sddmm"]["data-parallel"] > table["sddmm"]["phloem-static"]
