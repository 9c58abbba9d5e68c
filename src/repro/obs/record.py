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

import json

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
        record["cache"] = {
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
    if passes is not None:
        record["passes"] = passes
    if search is not None:
        record["search"] = search
    if stage_engines is not None:
        record["stage_engines"] = stage_engines
    if extra:
        record.update(extra)
    return record


def records_from_suite(bench, suite, cache_stats=None):
    """RunRecords for every run of a :func:`repro.bench.harness.run_suite`.

    Iterates variants and runs in the suite's own (deterministic) order, so
    records built from a parallel harness run are identical to a serial
    one: the worker pool returns per-input results in submission order and
    the merge below adds nothing time-dependent.
    """
    records = []
    for variant, runs in suite.items():
        if variant.startswith("_"):
            continue
        for run in runs:
            records.append(
                run_record(
                    bench,
                    variant,
                    run.input_name,
                    run.cycles,
                    ok=run.ok,
                    speedup=run.meta.get("speedup"),
                    summary=run.meta.get("summary"),
                    breakdown=run.breakdown,
                    energy=run.energy,
                    cache_stats=cache_stats,
                    stage_engines=run.meta.get("stage_engines"),
                )
            )
    return records


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
