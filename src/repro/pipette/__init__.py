"""The Pipette hardware substrate, simulated.

An event-driven, cycle-accounting model of the paper's baseline
architecture (Sec. III): SMT out-of-order cores with architecturally
visible queues, reference accelerators, control values, a three-level cache
hierarchy, and bandwidth-limited DRAM.
"""

from .config import (
    DEFAULT_ENGINE,
    ENGINE_ENV,
    ENGINES,
    PIPETTE_1CORE,
    PIPETTE_4CORE,
    SCALED_1CORE,
    SCALED_4CORE,
    CacheConfig,
    MachineConfig,
    resolve_engine,
)
from .energy import ENERGY_PJ, EnergyBreakdown, energy_of
from .machine import Machine, RunSpec
from .mem import AddressMap, Cache, MemorySystem
from .queues import HWQueue
from .sched import BarrierSync, IssueLedger, Scheduler, SharedCells, Task
from .stats import RunResult, SimStats, ThreadStats

__all__ = [
    "PIPETTE_1CORE",
    "PIPETTE_4CORE",
    "SCALED_1CORE",
    "SCALED_4CORE",
    "CacheConfig",
    "MachineConfig",
    "ENGINES",
    "DEFAULT_ENGINE",
    "ENGINE_ENV",
    "resolve_engine",
    "ENERGY_PJ",
    "EnergyBreakdown",
    "energy_of",
    "Machine",
    "RunSpec",
    "AddressMap",
    "Cache",
    "MemorySystem",
    "HWQueue",
    "BarrierSync",
    "IssueLedger",
    "Scheduler",
    "SharedCells",
    "Task",
    "RunResult",
    "SimStats",
    "ThreadStats",
]
