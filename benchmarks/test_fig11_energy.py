"""Regenerates paper Fig. 11: energy breakdowns normalized to serial.

Expected shape: Phloem's energy is below serial's on the graph benchmarks
(better core utilization shrinks static energy), and the DRAM component is
roughly unchanged (the same data still moves).
"""

from repro.bench.experiments import FIGURES
from repro.obs import normalized


def test_fig11(suite_records):
    print(FIGURES["fig11"].render(suite_records))
    table = normalized(suite_records, "energy")
    for name, variants in table.items():
        serial_total = sum(variants["serial"].values())
        assert abs(serial_total - 1.0) < 1e-6
        if name in ("bfs", "cc", "radii"):
            assert sum(variants["phloem"].values()) < 1.1, name
