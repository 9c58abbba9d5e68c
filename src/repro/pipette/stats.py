"""Simulation statistics.

Collects what the paper's figures need: per-thread cycle attribution
(Fig. 10's issue / backend-stall / queue-stall / other breakdown), memory
hierarchy event counts (for the energy model, Fig. 11), and queue/RA
traffic (for sanity checks and the analysis in Sec. VII-A).
:class:`RunResult` is one finished simulation: those counters plus the
final arrays.
"""

from .energy import energy_of


#: ThreadStats fields a compiled engine may mirror in frame locals for the
#: duration of a dispatch: every per-thread counter a stage writes (its
#: micro-ops, loads and mispredicts, and the four stall buckets). The contract (relied on by
#: :mod:`repro.pipette.batchpath`): mirrors must be flushed back before any
#: point where another task or the scheduler can observe the thread (every
#: ``yield``) and at completion. Accrual stays bit-identical to per-cycle
#: stepping because the same float additions run in the same order on the
#: same values — the mirrors only change *where* the running sum lives.
MIRROR_COUNTERS = ("uops", "loads", "mispredicts")
MIRROR_STALLS = ("queue_stall", "mem_stall", "branch_stall", "barrier_stall")


class ThreadStats:
    """Per-thread counters; cycle components attribute *why* time passed."""

    __slots__ = (
        "name",
        "uops",
        "loads",
        "mispredicts",
        "queue_stall",
        "mem_stall",
        "branch_stall",
        "barrier_stall",
        "start_cycle",
        "end_cycle",
    )

    def __init__(self, name):
        self.name = name
        self.uops = 0
        self.loads = 0
        self.mispredicts = 0
        self.queue_stall = 0.0
        self.mem_stall = 0.0
        self.branch_stall = 0.0
        self.barrier_stall = 0.0
        self.start_cycle = 0.0
        self.end_cycle = 0.0

    @property
    def total_cycles(self):
        return max(0.0, self.end_cycle - self.start_cycle)

    def breakdown(self):
        """Cycle components: (issue, backend/mem, queue, other).

        The measured stalls are subtracted from total thread time; the
        residual is time the thread was actively issuing (including issue
        bandwidth contention), which is the paper's "issuing micro-ops".

        The "other" bucket is additionally decomposed into its ``branch``
        and ``barrier`` parts (scaled proportionally when clamping hit), so
        ``other == branch + barrier`` up to float rounding. The four
        primary buckets partition the thread's total time; the sub-buckets
        are informational and must not be double-counted into totals.
        """
        total = self.total_cycles
        mem = min(self.mem_stall, total)
        queue = min(self.queue_stall, max(0.0, total - mem))
        other_raw = self.branch_stall + self.barrier_stall
        other = min(other_raw, max(0.0, total - mem - queue))
        issue = max(0.0, total - mem - queue - other)
        if other_raw > 0.0:
            branch = other * (self.branch_stall / other_raw)
            barrier = other - branch
        else:
            branch = barrier = 0.0
        return {
            "issue": issue,
            "backend": mem,
            "queue": queue,
            "other": other,
            "branch": branch,
            "barrier": barrier,
        }


class CacheStats:
    """Hit/miss counters for one cache level."""

    __slots__ = ("name", "hits", "misses", "prefetch_fills")

    def __init__(self, name):
        self.name = name
        self.hits = 0
        self.misses = 0
        self.prefetch_fills = 0

    @property
    def accesses(self):
        return self.hits + self.misses


class SimStats:
    """All counters from one simulation run.

    Each count has one writer: the memory system counts cache and DRAM
    events, the reference accelerators ``ra_loads``, and
    :meth:`~repro.pipette.machine.Machine.run` sets ``queue_enqs`` /
    ``queue_deqs`` once the run ends, from the queues' own totals.
    """

    def __init__(self):
        self.threads = []
        self.cache_levels = {}
        self.dram_accesses = 0
        self.ra_loads = 0
        self.queue_enqs = 0
        self.queue_deqs = 0
        self.wall_cycles = 0.0
        self.queues = {}

    def new_thread(self, name):
        ts = ThreadStats(name)
        self.threads.append(ts)
        return ts

    def register_queue(self, label, queue):
        """Record one finished :class:`~repro.pipette.queues.HWQueue`'s
        traffic counters under ``label`` (e.g. ``"r0.q3"``)."""
        self.queues[label] = {
            "enqs": queue.total_enqs,
            "deqs": queue.total_deqs,
            "max_occupancy": queue.max_occupancy,
            "capacity": queue.capacity,
            "full_blocks": queue.full_blocks,
            "empty_blocks": queue.empty_blocks,
        }

    def cache(self, name):
        if name not in self.cache_levels:
            self.cache_levels[name] = CacheStats(name)
        return self.cache_levels[name]

    @property
    def total_uops(self):
        return sum(t.uops for t in self.threads)

    @property
    def total_loads(self):
        return sum(t.loads for t in self.threads)

    def cycle_breakdown(self):
        """Aggregate Fig. 10-style breakdown, scaled to wall-clock cycles.

        Sums per-thread components and rescales so the components total the
        run's wall time, giving a per-run bar comparable across variants
        once normalized to the serial baseline.
        """
        sums = {
            "issue": 0.0,
            "backend": 0.0,
            "queue": 0.0,
            "other": 0.0,
            "branch": 0.0,
            "barrier": 0.0,
        }
        for t in self.threads:
            for key, value in t.breakdown().items():
                sums[key] += value
        # The four primary buckets partition each thread's time; "branch"
        # and "barrier" only decompose "other" and stay out of the total.
        total = sums["issue"] + sums["backend"] + sums["queue"] + sums["other"]
        if total <= 0:
            return {k: 0.0 for k in sums}
        scale = self.wall_cycles / total
        return {k: v * scale for k, v in sums.items()}

    def summary(self):
        return {
            "wall_cycles": self.wall_cycles,
            "uops": self.total_uops,
            "loads": self.total_loads,
            "mispredicts": sum(t.mispredicts for t in self.threads),
            "queue_stall": sum(t.queue_stall for t in self.threads),
            "mem_stall": sum(t.mem_stall for t in self.threads),
            "branch_stall": sum(t.branch_stall for t in self.threads),
            "barrier_stall": sum(t.barrier_stall for t in self.threads),
            "dram_accesses": self.dram_accesses,
            "ra_loads": self.ra_loads,
            "queue_enqs": self.queue_enqs,
            "queue_deqs": self.queue_deqs,
            "queues": {label: dict(row) for label, row in self.queues.items()},
        }


class RunResult:
    """One finished simulation, as plain data that holds no machine.

    ``replica_arrays[i]`` maps array names to replica ``i``'s final lists;
    ``active_cores`` counts the cores the run placed stages on (static
    energy scales with it); ``stage_engines`` maps each stage thread to the
    engine that executed it and ``stage_fallbacks`` the stages the requested
    engine could not express to the reason (empty when one engine ran).
    """

    def __init__(self, cycles, replica_arrays, stats, active_cores, stage_engines, stage_fallbacks):
        self.cycles = cycles
        self.replica_arrays = replica_arrays
        self.stats = stats
        self.active_cores = active_cores
        self.stage_engines = stage_engines
        self.stage_fallbacks = stage_fallbacks

    @property
    def arrays(self):
        """Final array contents (name -> list) of replica 0."""
        return self.replica_arrays[0]

    def energy(self):
        return energy_of(self.stats, self.active_cores)

    def breakdown(self):
        return self.stats.cycle_breakdown()

    def __repr__(self):
        return "RunResult(%.0f cycles)" % self.cycles
