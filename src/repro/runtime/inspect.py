"""Run introspection: the report one reads when a pipeline underperforms.

``describe_run`` renders per-stage cycle attribution (where each thread's
time went), per-queue traffic/occupancy/blocking, and RA throughput for a
finished simulation — the practical counterpart of the paper's Fig. 10
analysis, at single-run granularity. Everything here reads a
:class:`~repro.pipette.stats.RunResult` alone.
"""


def queue_report(result):
    """Per-queue rows: traffic, peak occupancy, and blocking events, from
    the counters the run registered under ``"r<replica>.q<queue>"``."""
    rows = []
    for label, counters in result.stats.queues.items():
        replica, queue = label[1:].split(".q")
        row = dict(counters, replica=int(replica), queue=int(queue))
        row["peak"] = row.pop("max_occupancy")
        rows.append(row)
    return rows


def stage_report(result):
    """Per-thread rows from a finished RunResult's stats."""
    rows = []
    for thread in result.stats.threads:
        breakdown = thread.breakdown()
        total = max(thread.total_cycles, 1.0)
        rows.append(
            {
                "thread": thread.name,
                "cycles": thread.total_cycles,
                "uops": thread.uops,
                "ipc": thread.uops / total,
                "issue_pct": 100.0 * breakdown["issue"] / total,
                "backend_pct": 100.0 * breakdown["backend"] / total,
                "queue_pct": 100.0 * breakdown["queue"] / total,
                "other_pct": 100.0 * breakdown["other"] / total,
                "mispredicts": thread.mispredicts,
            }
        )
    return rows


def describe_run(result):
    """Human-readable multi-line report for a finished run."""
    lines = ["run: %.0f cycles, %d uops" % (result.cycles, result.stats.total_uops)]
    lines.append("")
    lines.append(
        "%-26s %12s %8s %6s %6s %6s %6s %8s"
        % ("thread", "cycles", "uops", "iss%", "mem%", "que%", "oth%", "mispred")
    )
    for row in stage_report(result):
        lines.append(
            "%-26s %12.0f %8d %5.1f%% %5.1f%% %5.1f%% %5.1f%% %8d"
            % (
                row["thread"],
                row["cycles"],
                row["uops"],
                row["issue_pct"],
                row["backend_pct"],
                row["queue_pct"],
                row["other_pct"],
                row["mispredicts"],
            )
        )
    if result.stats.queues:
        lines.append("")
        lines.append(
            "%-8s %6s %10s %10s %6s %12s %12s"
            % ("replica", "queue", "enqs", "deqs", "peak", "full-blocks", "empty-blocks")
        )
        for row in queue_report(result):
            lines.append(
                "r%-7d q%-5d %10d %10d %3d/%-2d %12d %12d"
                % (
                    row["replica"],
                    row["queue"],
                    row["enqs"],
                    row["deqs"],
                    row["peak"],
                    row["capacity"],
                    row["full_blocks"],
                    row["empty_blocks"],
                )
            )
    caches = result.stats.cache_levels
    if caches:
        lines.append("")
        for name in ("L1", "L2", "L3"):
            level = caches.get(name)
            if level and level.accesses:
                lines.append(
                    "%s: %d accesses, %.1f%% hits, %d prefetch fills"
                    % (name, level.accesses, 100.0 * level.hits / level.accesses, level.prefetch_fills)
                )
        lines.append("DRAM: %d accesses" % result.stats.dram_accesses)
    return "\n".join(lines)
