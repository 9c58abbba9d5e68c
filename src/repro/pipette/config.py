"""Machine configuration (paper Table III).

The defaults reproduce the paper's evaluation configuration: Skylake-like
6-wide OOO cores with 4-thread SMT, Pipette's queue and RA limits per core
(:mod:`repro.ir.program`; a queue's depth is its ``QueueSpec.capacity``), and
a three-level cache hierarchy over bandwidth-limited DRAM.

Also the home of the engine selector (:data:`ENGINES`,
:data:`DEFAULT_ENGINE`, :data:`ENGINE_ENV`, :func:`resolve_engine`): a leaf
module, so picking an engine imports no engine.
"""

import os
from dataclasses import dataclass, field

from ..errors import ResourceError
from ..ir.program import MAX_QUEUES, MAX_RAS


def _default_op_latencies():
    # Completion latencies (cycles) for register-to-register operations.
    return {
        "mul": 3,
        "div": 12,
        "mod": 12,
        "select": 1,
    }


@dataclass(frozen=True)
class CacheConfig:
    """One cache level: size in bytes, associativity, access latency."""

    size: int
    ways: int
    latency: int
    line: int = 64

    @property
    def sets(self):
        return max(1, self.size // (self.line * self.ways))


#: MachineConfig fields that count entries of a structure (or, for
#: ``dram_service``, divide a window): none works below 1.
_SIZES = (
    "cores",
    "smt_threads",
    "issue_width",
    "rob_size",
    "mshrs",
    "ra_mshrs",
    "dram_controllers",
    "dram_service",
)


@dataclass(frozen=True)
class MachineConfig:
    """Full system configuration; see Table III of the paper."""

    # Cores.
    cores: int = 1
    smt_threads: int = 4
    issue_width: int = 6
    rob_size: int = 224
    mshrs: int = 10
    mispredict_penalty: int = 14

    # Pipette.
    max_queues: int = MAX_QUEUES
    max_ras: int = MAX_RAS
    queue_latency: int = 2  # producer->consumer, same core (via the PRF)
    xcore_queue_latency: int = 16  # producer->consumer across cores
    ra_mshrs: int = 16  # parallel loads an RA keeps in flight (in-order delivery)

    # Memory hierarchy (per-core L1/L2; L3 is shared and scales with cores).
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024, 8, 4))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(256 * 1024, 8, 12))
    l3_per_core: CacheConfig = field(default_factory=lambda: CacheConfig(2 * 1024 * 1024, 16, 40))
    dram_latency: int = 120
    dram_controllers: int = 2
    # 64B line / 25 GB/s at 3.5 GHz ~= 9 cycles of service per controller.
    dram_service: int = 9

    # Stride prefetcher (serial baselines lean on this for streaming scans).
    prefetch_enabled: bool = True
    prefetch_degree: int = 4

    # Per-op completion latencies; everything absent defaults to 1 cycle.
    op_latencies: dict = field(default_factory=_default_op_latencies)

    def __post_init__(self):
        # A negative latency or penalty moves a clock backwards; the engines
        # only agree with each other on clocks that never do.
        latencies = {
            "mispredict_penalty": self.mispredict_penalty,
            "queue_latency": self.queue_latency,
            "xcore_queue_latency": self.xcore_queue_latency,
            "dram_latency": self.dram_latency,
            "l1.latency": self.l1.latency,
            "l2.latency": self.l2.latency,
            "l3_per_core.latency": self.l3_per_core.latency,
        }
        latencies.update(("op_latencies[%r]" % op, v) for op, v in self.op_latencies.items())
        negative = sorted(name for name, value in latencies.items() if value < 0)
        if negative:
            raise ResourceError("negative latency in MachineConfig: %s" % ", ".join(negative))
        # A structure with no entries never grants one: a 0-wide issue stage
        # spins forever looking for a slot, an empty ROB/MSHR ring has no
        # head to wait for, a DRAM window of service 0 divides by it.
        empty = [name for name in _SIZES if getattr(self, name) < 1]
        if empty:
            raise ResourceError("size below 1 in MachineConfig: %s" % ", ".join(empty))
        # The issue ledger counts a cycle's issued micro-ops in one byte.
        if self.issue_width > 255:
            raise ResourceError("issue_width above 255 in MachineConfig: %d" % self.issue_width)

    @property
    def l3(self):
        """The shared LLC: per-core slice scaled by core count."""
        per = self.l3_per_core
        return CacheConfig(per.size * self.cores, per.ways, per.latency, per.line)

    def op_latency(self, op):
        return self.op_latencies.get(op, 1)


#: The paper's single-core evaluation configuration.
PIPETTE_1CORE = MachineConfig()

#: The paper's replication configuration (Sec. VII-B): 4 cores x 4 threads.
PIPETTE_4CORE = MachineConfig(cores=4)


def _scaled(cores=1):
    """The *scaled* evaluation configuration used by the benchmark harness.

    The paper simulates inputs hundreds of times larger than a pure-Python
    simulator can carry, so the harness shrinks the workloads and, with
    them, the capacity-sensitive cache levels — keeping L1/L2 large enough
    for the queue-depth-scale reuse window that decoupled prefetching
    relies on, while making the scaled working sets exceed the LLC the way
    the paper's full-size inputs exceed its 2 MB/core L3. Latencies are
    unchanged (Table III).
    """
    return MachineConfig(
        cores=cores,
        l1=CacheConfig(16 * 1024, 8, 4),
        l2=CacheConfig(32 * 1024, 8, 12),
        l3_per_core=CacheConfig(64 * 1024, 16, 40),
    )


#: Scaled configs used by `repro.bench` (see DESIGN.md, substitutions).
SCALED_1CORE = _scaled(1)
SCALED_4CORE = _scaled(4)


#: The three execution engines, slowest (oracle) first.
ENGINES = ("reference", "fastpath", "batch")

#: What runs when nothing selects an engine.
DEFAULT_ENGINE = "batch"

#: Environment default for runs that pass no explicit engine. Deliberately
#: *below* explicit arguments in priority: CI sets REPRO_ENGINE per matrix
#: leg, and the differential tests inside a leg must still be able to pin
#: each engine explicitly without the environment leaking into the oracle
#: side of the comparison.
ENGINE_ENV = "REPRO_ENGINE"


def resolve_engine(pipeline=None, engine=None):
    """Pick one of :data:`ENGINES`.

    Priority: explicit ``engine`` > ``REPRO_ENGINE`` >
    :data:`DEFAULT_ENGINE`, the batch-advance engine. ``pipeline`` is
    ignored — a compiled pipeline carries no engine preference — and stays
    in the signature only because callers pass it positionally.
    """
    choice = engine
    if choice is None:
        choice = os.environ.get(ENGINE_ENV) or DEFAULT_ENGINE
    if choice not in ENGINES:
        raise ValueError(
            "unknown engine %r (expected one of %s)" % (choice, ", ".join(ENGINES))
        )
    return choice
