"""Energy model and statistics accounting."""

import pytest

from repro.pipette.energy import ENERGY_PJ, STATIC_PJ_PER_CYCLE, EnergyBreakdown, energy_of
from repro.pipette.stats import SimStats, ThreadStats


def _stats(uops=100, wall=1000.0, dram=5):
    stats = SimStats()
    t = stats.new_thread("t0")
    t.uops = uops
    t.start_cycle, t.end_cycle = 0.0, wall
    stats.wall_cycles = wall
    stats.dram_accesses = dram
    cache = stats.cache("L1")
    cache.hits, cache.misses = 80, 20
    return stats


def test_energy_components_scale_with_events():
    small = energy_of(_stats(uops=100), 1)
    big = energy_of(_stats(uops=1000), 1)
    assert big.core_dynamic > small.core_dynamic
    assert big.core_static == small.core_static  # same wall time


def test_static_energy_scales_with_cores():
    one = energy_of(_stats(), 1)
    four = energy_of(_stats(), 4)
    assert four.core_static == pytest.approx(4 * one.core_static)


def test_dram_energy():
    none = energy_of(_stats(dram=0), 1)
    some = energy_of(_stats(dram=10), 1)
    assert some.dram - none.dram == pytest.approx(10 * ENERGY_PJ["dram"])


def test_static_constant_used():
    e = energy_of(_stats(wall=100.0), 1)
    assert e.core_static == pytest.approx(100.0 * STATIC_PJ_PER_CYCLE)


def test_breakdown_dict_and_total():
    b = EnergyBreakdown(1.0, 2.0, 3.0, 4.0)
    assert b.total == 10.0
    assert set(b.as_dict()) == {"core_dynamic", "core_static", "cache", "dram"}


class TestThreadBreakdown:
    def test_components_fill_total(self):
        t = ThreadStats("t")
        t.start_cycle, t.end_cycle = 0.0, 100.0
        t.mem_stall = 30.0
        t.queue_stall = 20.0
        t.branch_stall = 10.0
        b = t.breakdown()
        assert b["backend"] == 30.0
        assert b["queue"] == 20.0
        assert b["other"] == 10.0
        assert b["issue"] == 40.0
        # branch/barrier decompose "other"; they are not extra components.
        assert b["branch"] == 10.0
        assert b["barrier"] == 0.0
        primary = b["issue"] + b["backend"] + b["queue"] + b["other"]
        assert primary == pytest.approx(100.0)

    def test_other_decomposition_sums_to_other(self):
        t = ThreadStats("t")
        t.start_cycle, t.end_cycle = 0.0, 100.0
        t.branch_stall = 12.0
        t.barrier_stall = 8.0
        b = t.breakdown()
        assert b["other"] == pytest.approx(20.0)
        assert b["branch"] + b["barrier"] == pytest.approx(b["other"])
        assert b["branch"] == pytest.approx(12.0)
        assert b["barrier"] == pytest.approx(8.0)

    def test_overbooked_stalls_clamped(self):
        t = ThreadStats("t")
        t.start_cycle, t.end_cycle = 0.0, 50.0
        t.mem_stall = 80.0  # measured stall exceeds wall: clamp
        b = t.breakdown()
        assert b["backend"] == 50.0
        assert b["issue"] == 0.0
        primary = b["issue"] + b["backend"] + b["queue"] + b["other"]
        assert primary == pytest.approx(50.0)


def test_sim_breakdown_rescales_to_wall():
    stats = SimStats()
    for name in ("a", "b"):
        t = stats.new_thread(name)
        t.start_cycle, t.end_cycle = 0.0, 100.0
        t.queue_stall = 50.0
    stats.wall_cycles = 100.0
    b = stats.cycle_breakdown()
    primary = b["issue"] + b["backend"] + b["queue"] + b["other"]
    assert primary == pytest.approx(100.0)
    assert b["queue"] == pytest.approx(50.0)


def test_summary_keys():
    stats = _stats()
    summary = stats.summary()
    for key in ("wall_cycles", "uops", "loads", "dram_accesses", "ra_loads"):
        assert key in summary
