"""RunRecord schema, merging, and JSONL round-trips."""

import json

import pytest

from repro import cache
from repro.bench.harness import adapter_for, run_suite
from repro.obs import (
    RECORD_SCHEMA,
    RECORD_VERSION,
    gmean_speedups,
    merge_records,
    normalized,
    read_jsonl,
    run_record,
    stamp_cache,
    write_jsonl,
)
from repro.workloads.datasets import Input
from repro.workloads.graphs import uniform_random


def test_every_record_is_schema_stamped_and_json_clean():
    record = run_record("bfs", "serial", "tiny", 123.0, ok=True, speedup=1.0)
    assert record["schema"] == RECORD_SCHEMA
    assert record["version"] == RECORD_VERSION
    assert record["bench"] == "bfs" and record["variant"] == "serial"
    json.dumps(record)  # must be JSON-serializable as-is


def test_optional_sections_appear_only_when_given():
    bare = run_record("bfs", "serial", "tiny", 1.0)
    assert "summary" not in bare and "cache" not in bare and "passes" not in bare
    full = run_record(
        "bfs",
        "phloem",
        "tiny",
        1.0,
        summary={"wall_cycles": 1.0},
        cache_stats={"pipeline": {"hits": 3, "misses": 1}},
        passes=[{"pass": "decouple"}],
        search={"candidates": []},
    )
    assert full["cache"]["pipeline"]["hit_rate"] == 0.75
    assert full["passes"] and full["search"] is not None


def test_merge_is_deterministic_and_first_wins():
    a = [run_record("bfs", "serial", "g1", 10.0), run_record("bfs", "phloem", "g1", 5.0)]
    b = [run_record("bfs", "serial", "g1", 999.0), run_record("cc", "serial", "g1", 7.0)]
    merged = merge_records(a, b)
    assert merge_records(b, a) != merged or True  # both orders are valid streams
    keys = [(r["bench"], r["input"], r["variant"]) for r in merged]
    assert keys == sorted(keys)
    serial_bfs = next(r for r in merged if r["bench"] == "bfs" and r["variant"] == "serial")
    assert serial_bfs["cycles"] == 10.0  # first occurrence won
    # Any partition of the same records merges identically.
    assert merge_records(a + b) == merged


def test_jsonl_round_trip(tmp_path):
    records = [run_record("bfs", "serial", "g1", 10.0), run_record("bfs", "manual", "g1", 4.0)]
    path = str(tmp_path / "runs.jsonl")
    write_jsonl(records, path)
    lines = open(path).read().strip().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line) for line in lines)
    assert read_jsonl(path) == records


def test_unknown_keys_survive_the_round_trip(tmp_path):
    """Forward compatibility: a newer producer's extra keys pass through."""
    record = run_record("bfs", "serial", "g1", 10.0)
    record["added_in_v99"] = {"nested": [1, 2, 3]}
    path = str(tmp_path / "future.jsonl")
    write_jsonl([record], path)
    (loaded,) = read_jsonl(path)
    assert loaded["added_in_v99"] == {"nested": [1, 2, 3]}
    assert loaded["schema"] == RECORD_SCHEMA and loaded["version"] == RECORD_VERSION
    # Merging neither drops nor reorders the unknown payload.
    (merged,) = merge_records([loaded], [run_record("bfs", "serial", "g1", 99.0)])
    assert merged["added_in_v99"] == {"nested": [1, 2, 3]}
    assert merged["cycles"] == 10.0  # first occurrence still wins


def test_suite_records_carry_summaries_and_speedups(tiny_config):
    adapter = adapter_for("bfs")
    item = Input("tiny", "synthetic", lambda: uniform_random(120, 4, seed=5))
    suite = run_suite(
        adapter,
        [item],
        [],
        config=tiny_config,
        variants=("serial", "phloem-static"),
    )
    records = stamp_cache(suite.records, cache.stats())
    assert [r["variant"] for r in records] == ["serial", "phloem-static"]
    for record in records:
        assert record["bench"] == "bfs" and record["input"] == "tiny"
        assert record["ok"] is True
        assert record["cycles"] > 0
        assert "breakdown" in record and "energy" in record and "cache" in record
        assert record["summary"]["wall_cycles"] == record["cycles"]
        assert "queues" in record["summary"]
    serial, static = records
    assert serial["speedup"] == 1.0 and static["speedup"] == serial["cycles"] / static["cycles"]
    # Only a live run names its engines: the serial baseline may come from
    # the cache, simulated by another process.
    assert "stage_engines" not in serial and static["stage_engines"]
    json.dumps(records)  # the whole stream serializes


def _run(variant, input_name, cycles, speedup, scale):
    return run_record(
        "bfs", variant, input_name, cycles, speedup=speedup,
        breakdown={"issue": 0.5 * cycles, "backend": 0.5 * cycles, "queue": 0.0, "other": 0.0},
        energy={"core_dynamic": scale, "core_static": scale, "cache": scale, "dram": scale},
    )


def test_slicers_fold_over_inputs():
    """A per-kernel number is the gmean speedup over inputs, and a section
    normalised to the serial run *of the same input*, then averaged."""
    records = [
        _run("serial", "g1", 100.0, 1.0, 1.0),
        _run("phloem", "g1", 50.0, 2.0, 0.5),
        _run("serial", "g2", 1000.0, 1.0, 10.0),
        _run("phloem", "g2", 125.0, 8.0, 2.5),
        run_record("cc", "engine-batch", "g1", 7.0),  # no speedup, no sections
    ]
    speedups = gmean_speedups(records)
    assert list(speedups["bfs"]) == ["serial", "phloem"]  # first-seen order
    assert speedups["bfs"]["phloem"] == pytest.approx(4.0)
    assert speedups["cc"] == {"engine-batch": None}

    breakdowns = normalized(records, "breakdown")
    assert set(breakdowns) == {"bfs"}
    assert sum(breakdowns["bfs"]["serial"].values()) == pytest.approx(1.0)
    # (50/100 + 125/1000) / 2, split evenly over issue and backend.
    assert breakdowns["bfs"]["phloem"]["issue"] == pytest.approx(0.15625)
    energy = normalized(records, "energy")
    assert sum(energy["bfs"]["serial"].values()) == pytest.approx(1.0)
    assert energy["bfs"]["phloem"]["dram"] == pytest.approx((0.5 / 4 + 2.5 / 40) / 2)
    # Without the serial run of an input there is nothing to normalise to.
    assert normalized(records[1:2], "breakdown") == {}
