"""GARDENIA-style workload suite: speedups over serial (extension table).

Expected shape: the data-parallel baselines win everywhere (these kernels
have abundant vertex/row parallelism); the manually pipelined decoupled
variants beat serial on the streaming-heavy kernels (PageRank, TC, BC,
SpMV); and the static compiler extracts real speedup only where control
flow is analyzable (SpMV) — SSSP's value-dependent bucket loops defeat
automatic stage splitting, mirroring the paper's SpMM negative result.
SSSP's manual pipeline is also a documented negative result: the
bucket-synchronized double RA chain serializes on its barriers and runs
slower than serial (the delta-stepping wavefronts are too short to fill
the decoupled queues).

Every row is validated against the workload's golden CPU oracle where the
suites run (``repro.bench.experiments``); a wrong output raises before any
assertion here runs. ``GARDENIA_RECORDS`` names a ``repro figures gardenia
--metrics-out`` file to assert over instead of simulating again (CI).
"""

import os

import pytest

from repro.obs import gmean_speedups, read_jsonl


@pytest.fixture
def records(request):
    path = os.environ.get("GARDENIA_RECORDS")
    if path:
        return read_jsonl(path)
    return request.getfixturevalue("figure")("gardenia")


def test_gardenia(records):
    assert all(r["ok"] for r in records)
    table = gmean_speedups(records)
    assert set(table) == {"sssp", "pr", "tc", "bc", "spmv"}

    # Data-parallel wins on every workload.
    for name in table:
        assert table[name]["data-parallel"] > 1.2, (name, table[name])

    # Decoupled manual pipelines beat serial on the streaming kernels.
    for name in ("pr", "tc", "bc", "spmv"):
        assert table[name]["manual"] > 1.1, (name, table[name])

    # SpMV: the gather is fully offloadable, so the *automatic* static
    # flow wins too.
    assert table["spmv"]["phloem-static"] > 1.5, table["spmv"]

    # SSSP: negative results — static compilation can't split the
    # value-dependent bucket loops (falls back near 1.0x), and the
    # barrier-synchronized manual pipeline pays for its synchronization.
    assert table["sssp"]["phloem-static"] < 1.5, table["sssp"]
    assert table["sssp"]["manual"] < 1.0, table["sssp"]
