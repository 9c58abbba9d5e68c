"""Structured, versioned run metrics (``RunRecord``).

One RunRecord is a plain JSON-serializable dict describing one
``(benchmark, variant, input)`` execution: cycles, the full
:meth:`~repro.pipette.stats.SimStats.summary` (including per-queue traffic
and the stall buckets), the Fig. 10 cycle breakdown, the energy breakdown,
cache-layer hit rates, and — when instrumented — compile-pass timings and
search verdicts. Records stream to JSONL (one record per line, sorted
keys) so cross-variant and cross-run comparisons are a ``jq`` one-liner.

The schema is versioned: every record carries ``schema`` and ``version``;
consumers must ignore unknown keys (additions bump nothing) while any
change to the *meaning* of an existing key bumps ``RECORD_VERSION``.
"""

import copy
import json
import math

#: Schema identity stamped on every record.
RECORD_SCHEMA = "repro.obs/run-record"
RECORD_VERSION = 1

#: Merge/sort identity of a record within a stream.
_KEY_FIELDS = ("bench", "input", "variant")


def run_record(
    bench,
    variant,
    input_name,
    cycles,
    ok=None,
    summary=None,
    breakdown=None,
    energy=None,
    speedup=None,
    cache_stats=None,
    passes=None,
    search=None,
    extra=None,
    stage_engines=None,
):
    """Build one RunRecord dict.

    ``summary``/``breakdown``/``energy`` come from the simulator
    (:class:`~repro.pipette.stats.SimStats`), ``cache_stats`` from
    :func:`repro.cache.stats`, ``passes`` from
    :meth:`~repro.obs.passes.PassProfiler.as_dicts`, ``search`` from
    :meth:`~repro.obs.search.SearchRecorder.as_dict`, ``stage_engines``
    (stage thread -> engine that executed it) from
    :attr:`~repro.runtime.executor.RunResult.stage_engines`.
    """
    record = {
        "schema": RECORD_SCHEMA,
        "version": RECORD_VERSION,
        "bench": bench,
        "variant": variant,
        "input": input_name,
        "cycles": cycles,
    }
    if ok is not None:
        record["ok"] = bool(ok)
    if speedup is not None:
        record["speedup"] = speedup
    if summary is not None:
        record["summary"] = summary
    if breakdown is not None:
        record["breakdown"] = breakdown
    if energy is not None:
        record["energy"] = energy
    if cache_stats is not None:
        record["cache"] = _cache_section(cache_stats)
    if passes is not None:
        record["passes"] = passes
    if search is not None:
        record["search"] = search
    if stage_engines is not None:
        record["stage_engines"] = stage_engines
    if extra:
        record.update(extra)
    return record


def _cache_section(cache_stats):
    return {
        layer: {
            "hits": counts["hits"],
            "misses": counts["misses"],
            "hit_rate": (
                counts["hits"] / (counts["hits"] + counts["misses"])
                if counts["hits"] + counts["misses"]
                else 0.0
            ),
        }
        for layer, counts in cache_stats.items()
    }


def record_of(bench, variant, input_name, run, ok=None, serial_cycles=None, **sections):
    """The record of one finished simulation — the only constructor.

    ``run`` is a live :class:`~repro.runtime.executor.RunResult` or a
    memoized one (:class:`repro.cache.CachedRun`), which *is* the
    simulator's share of a record plus the output arrays; the engine is
    part of the memo's key, so either names the engine of each stage. The
    record shares no mutable object with the memo entry. ``serial_cycles``
    is the serial baseline of the same input; ``sections`` are
    ``cache_stats`` / ``passes`` / ``extra`` as in :func:`run_record`.
    """
    from ..cache import CachedRun

    if isinstance(run, CachedRun):
        measured = copy.deepcopy(run.measured)
    else:
        measured = measure(run)
    speedup = None if serial_cycles is None else serial_cycles / measured["cycles"]
    return run_record(
        bench, variant, input_name, ok=ok, speedup=speedup, **measured, **sections
    )


def measure(result):
    """The simulator's share of a record, read off a live ``RunResult``
    (what :func:`repro.cache.cached_run` stores next to the output arrays)."""
    return {
        "cycles": result.cycles,
        "summary": result.stats.summary(),
        "breakdown": result.breakdown(),
        "energy": result.energy().as_dict(),
        "stage_engines": result.stage_engines,
    }


def stamp_cache(records, cache_stats):
    """Give every record the ``cache`` section of one stream: the
    :mod:`repro.cache` hit/miss counts of the request that produced them."""
    section = _cache_section(cache_stats)
    for record in records:
        record["cache"] = section
    return records


# ---------------------------------------------------------------------------
# Slicers: every per-kernel number is an explicit fold over per-input records


def by_kernel(records):
    """``{bench: {variant: [record, ...]}}`` in first-seen order."""
    table = {}
    for record in records:
        table.setdefault(record["bench"], {}).setdefault(record["variant"], []).append(record)
    return table


def gmean_speedups(records):
    """``{bench: {variant: geometric-mean speedup over inputs}}`` (Fig. 9).

    A variant none of whose records carries a speedup reads ``None``.
    """
    table = {}
    for bench, variants in by_kernel(records).items():
        row = table[bench] = {}
        for variant, runs in variants.items():
            logs = [math.log(r["speedup"]) for r in runs if r.get("speedup") is not None]
            row[variant] = math.exp(sum(logs) / len(logs)) if logs else None
    return table


#: What a section is normalised to: the serial run's total of the same thing.
_SERIAL_TOTAL = {
    "breakdown": lambda serial: serial["cycles"],
    "energy": lambda serial: sum(serial.get("energy", {}).values()),
}


def normalized(records, section):
    """``{bench: {variant: {component: value}}}``: each run's ``section``
    (``"breakdown"``, Fig. 10; ``"energy"``, Fig. 11) divided by the serial
    total of the same input, then averaged over inputs. Runs without the
    section, or whose input has no serial record, are left out."""
    base = {
        (r["bench"], r["input"]): _SERIAL_TOTAL[section](r)
        for r in records
        if r["variant"] == "serial"
    }
    table = {}
    for bench, variants in by_kernel(records).items():
        for variant, runs in variants.items():
            rows = [
                {k: v / base[bench, r["input"]] for k, v in r[section].items()}
                for r in runs
                if r.get(section) and base.get((bench, r["input"]))
            ]
            if rows:
                table.setdefault(bench, {})[variant] = {
                    k: sum(row[k] for row in rows) / len(rows) for k in rows[0]
                }
    return table


def merge_records(*record_lists):
    """Deterministically merge record streams (e.g. one per worker).

    Records are keyed by ``(bench, input, variant)``; the first occurrence
    wins and the merged stream is sorted by that key, so any partition of
    the same work across workers merges to the same list.
    """
    seen = {}
    for records in record_lists:
        for record in records:
            key = tuple(str(record.get(field)) for field in _KEY_FIELDS)
            if key not in seen:
                seen[key] = record
    return [seen[key] for key in sorted(seen)]


def write_jsonl(records, path):
    """Write records to ``path``, one sorted-key JSON object per line."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")


def read_jsonl(path):
    """Read a JSONL record stream back (blank lines ignored)."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
