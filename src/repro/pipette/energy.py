"""Energy model (stands in for the paper's McPAT-22nm + DDR3L models).

Per-event energies and static power are representative 22 nm-class
constants. Absolute joules are not meaningful for a reproduction; what the
evaluation (Fig. 11) compares is the *relative* energy of program variants,
which is driven by the event counts and runtime measured by the simulator.
"""

#: Per-event dynamic energy, picojoules.
ENERGY_PJ = {
    "uop": 60.0,  # fetch/decode/rename/execute/retire of one micro-op
    "l1": 15.0,
    "l2": 45.0,
    "l3": 180.0,
    "dram": 2800.0,
    "queue_op": 4.0,  # register-file-based queue access
    "ra_load": 8.0,  # RA FSM control overhead (its cache traffic is counted)
}

#: Static (leakage + clock) power per core, picojoules per cycle.
STATIC_PJ_PER_CYCLE = 120.0


class EnergyBreakdown:
    """Energy totals in picojoules, split the way Fig. 11 plots them."""

    def __init__(self, core_dynamic, core_static, cache, dram):
        self.core_dynamic = core_dynamic
        self.core_static = core_static
        self.cache = cache
        self.dram = dram

    @property
    def total(self):
        return self.core_dynamic + self.core_static + self.cache + self.dram

    def as_dict(self):
        return {
            "core_dynamic": self.core_dynamic,
            "core_static": self.core_static,
            "cache": self.cache,
            "dram": self.dram,
        }

    def __repr__(self):
        return "EnergyBreakdown(total=%.3g pJ)" % self.total


def energy_of(stats, active_cores):
    """Compute the energy breakdown of a finished run on ``active_cores``
    cores (the cores its threads ran on, which static power is paid for)."""
    core_dynamic = ENERGY_PJ["uop"] * stats.total_uops
    core_dynamic += ENERGY_PJ["queue_op"] * (stats.queue_enqs + stats.queue_deqs)
    core_dynamic += ENERGY_PJ["ra_load"] * stats.ra_loads

    cache = 0.0
    for name, key in (("L1", "l1"), ("L2", "l2"), ("L3", "l3")):
        level = stats.cache_levels.get(name)
        if level is not None:
            cache += ENERGY_PJ[key] * (level.accesses + level.prefetch_fills)

    dram = ENERGY_PJ["dram"] * stats.dram_accesses
    core_static = STATIC_PJ_PER_CYCLE * stats.wall_cycles * active_cores
    return EnergyBreakdown(core_dynamic, core_static, cache, dram)
