"""Regenerates paper Fig. 10: cycle breakdowns normalized to serial.

Expected shape: serial is dominated by backend (memory) and other
(mispredict) stalls; pipelined variants introduce queue-stall components
but shrink total normalized cycles.
"""

from repro.bench.experiments import FIGURES
from repro.obs import normalized
from repro.obs.report import BREAKDOWN_BUCKETS


def _total(breakdown):
    # branch/barrier only decompose "other": they stay out of totals.
    return sum(breakdown[bucket] for bucket in BREAKDOWN_BUCKETS)


def test_fig10(suite_records):
    print(FIGURES["fig10"].render(suite_records))
    table = normalized(suite_records, "breakdown")
    for name, variants in table.items():
        serial_total = _total(variants["serial"])
        assert abs(serial_total - 1.0) < 1e-6, name  # normalized to itself
        assert variants["serial"]["queue"] == 0.0
        if name != "spmm":
            phloem_total = _total(variants["phloem"])
            assert phloem_total < serial_total, name
            assert variants["phloem"]["queue"] > 0.0, name
