"""The simulator perf harness: record shape, baseline checks, determinism.

The determinism tests are the load-bearing ones: they run the harness in
fresh subprocesses with *different* ``PYTHONHASHSEED`` values and different
worker counts and require identical ``cycles`` in every record — the guard
against dict-iteration-order (or any other hash-randomized state) leaking
into simulated time.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.bench import perf

REPO_ROOT = str(pathlib.Path(__file__).resolve().parents[2])

#: Tiny inputs so harness tests cost milliseconds, not benchmark minutes.
TINY_INPUTS = {
    "bfs": ("power_law", {"n": 120, "deg": 3, "seed": 7}),
    "spmm": ("random_matrix", {"n": 16, "nnz_per_row": 3, "seed": 7}),
}


@pytest.fixture
def tiny_scale(monkeypatch):
    monkeypatch.setitem(perf.SCALES, "quick", TINY_INPUTS)


def _record(bench="bfs", cycles=1000, slow=2.0, fast=1.0, batch=None, **over):
    """A v2 perf record: reference + fastpath walls, plus batch when given."""

    def per(wall):
        return {
            "wall_s": wall,
            "speedup": round(slow / wall, 3),
            "sim_mcycles_per_s": round(cycles / wall / 1e6, 3),
        }

    engines = {"reference": per(slow), "fastpath": per(fast)}
    if batch is not None:
        engines["batch"] = per(batch)
    record = {
        "schema": perf.PERF_SCHEMA,
        "version": perf.PERF_VERSION,
        "bench": bench,
        "scale": "quick",
        "input": "power_law(deg=3,n=120,seed=7)",
        "repeats": 2,
        "cycles": cycles,
        "engines": engines,
        "phases": {},
    }
    record.update(over)
    return record


def _multi_record(bench="bfs", cycles=1000, slow=4.0, fast=2.0, batch=1.0, **over):
    """A record as the multi-engine harness emits it (``--engine all``)."""
    return _record(bench=bench, cycles=cycles, slow=slow, fast=fast, batch=batch, **over)


class TestMeasure:
    def test_measure_bench_record_shape(self, tiny_scale):
        record = perf.measure_bench("bfs", scale="quick", repeats=1)
        assert record["schema"] == perf.PERF_SCHEMA
        assert record["bench"] == "bfs"
        assert record["cycles"] > 0
        assert record["version"] == perf.PERF_VERSION == 2
        reference, batch = record["engines"]["reference"], record["engines"]["batch"]
        assert reference["wall_s"] > 0 and batch["wall_s"] > 0
        assert batch["speedup"] == round(reference["wall_s"] / batch["wall_s"], 3)
        assert set(record["phases"]) == {"input_s", "compile_s"}
        # One shape: per-engine numbers live only in the ``engines`` map.
        assert set(record) == {
            "schema", "version", "bench", "scale", "input", "repeats", "cycles",
            "engines", "phases",
        }

    def test_repeats_agree_on_cycles(self, tiny_scale):
        one = perf.measure_bench("spmm", scale="quick", repeats=1)
        two = perf.measure_bench("spmm", scale="quick", repeats=2)
        assert one["cycles"] == two["cycles"]

    def test_measure_all_engines(self, tiny_scale):
        record = perf.measure_bench("bfs", scale="quick", repeats=1, engines="all")
        assert set(record["engines"]) == {"reference", "fastpath", "batch"}
        assert record["engines"]["reference"]["speedup"] == 1.0

    def test_single_engine_selection_keeps_reference(self, tiny_scale):
        record = perf.measure_bench("spmm", scale="quick", repeats=1, engines="batch")
        assert set(record["engines"]) == {"reference", "batch"}

    def test_mixed_engine_run_logs_one_advisory_line(self, tiny_scale, monkeypatch, capsys):
        from repro.pipette import batchpath

        monkeypatch.delenv("REPRO_QUIET", raising=False)
        perf.measure_bench("spmm", scale="quick", repeats=1, engines="batch")
        assert "mixed engines" not in capsys.readouterr().err
        monkeypatch.setattr(batchpath, "_MAX_LINES", 10)  # every stage falls back
        perf.measure_bench("spmm", scale="quick", repeats=1, engines="batch")
        lines = [l for l in capsys.readouterr().err.splitlines() if "mixed engines" in l]
        assert len(lines) == 1 and lines[0].startswith("perf spmm (batch): mixed engines: r0.s0.")
        assert "generated stage body too large" in lines[0]

    def test_normalize_engines(self, monkeypatch):
        # No argument: the reference plus whatever a run that selects
        # nothing gets, so the harness times what users run.
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert perf.normalize_engines() == ("reference", "batch")
        monkeypatch.setenv("REPRO_ENGINE", "fastpath")
        assert perf.normalize_engines() == ("reference", "fastpath")
        assert perf.normalize_engines("all") == ("reference", "fastpath", "batch")
        assert perf.normalize_engines("batch") == ("reference", "batch")
        assert perf.normalize_engines(["batch", "fastpath"]) == (
            "reference", "fastpath", "batch",
        )
        with pytest.raises(perf.PerfError):
            perf.normalize_engines("warp-drive")


class TestAggregate:
    def test_aggregate_is_total_ratio(self):
        records = [_record(slow=3.0, fast=1.0), _record(bench="cc", slow=1.0, fast=1.0)]
        agg = perf.aggregate(records)
        assert agg["fastpath"] == {"wall_s": 2.0, "reference_wall_s": 4.0, "speedup": 2.0}

    def test_aggregate_per_engine(self):
        records = [
            _multi_record(slow=4.0, fast=2.0, batch=1.0),
            _multi_record(bench="cc", slow=2.0, fast=1.0, batch=1.0),
        ]
        agg = perf.aggregate(records)
        assert agg["reference"]["speedup"] == 1.0
        assert agg["fastpath"] == {"wall_s": 3.0, "reference_wall_s": 6.0, "speedup": 2.0}
        assert agg["batch"] == {"wall_s": 2.0, "reference_wall_s": 6.0, "speedup": 3.0}

    def test_aggregate_mixed_records_uses_common_engines(self):
        # One record has no batch measurement: the batch aggregate would be
        # meaningless, so only the common engine set is rolled up.
        records = [_multi_record(), _record(bench="cc")]
        agg = perf.aggregate(records)
        assert set(agg) == {"reference", "fastpath"}


class TestBaseline:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        records = [_record()]
        written = perf.write_baseline(records, "quick", path=path)
        loaded = perf.read_baseline(path)
        assert loaded == json.loads(json.dumps(written))
        assert loaded["schema"] == perf.BASELINE_SCHEMA
        assert loaded["version"] == 2
        assert loaded["aggregate"]["fastpath"]["speedup"] == 2.0

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"schema": "something-else"}')
        with pytest.raises(perf.PerfError):
            perf.read_baseline(str(path))

    def test_cycles_mismatch_is_error(self):
        baseline = perf.baseline_payload([_record(cycles=1000)], "quick")
        errors, warnings = perf.check_against_baseline(
            [_record(cycles=1001)], baseline, threshold=0.25
        )
        assert len(errors) == 1 and "cycles changed" in errors[0]

    def test_wall_regression_is_warning_only(self):
        baseline = perf.baseline_payload([_record(fast=1.0)], "quick")
        errors, warnings = perf.check_against_baseline(
            [_record(fast=2.0, slow=4.0)], baseline, threshold=0.25
        )
        assert not errors
        assert any("exceeds baseline" in w for w in warnings)

    def test_within_threshold_is_clean(self):
        baseline = perf.baseline_payload([_record()], "quick")
        errors, warnings = perf.check_against_baseline(
            [_record(fast=1.1, slow=2.2)], baseline, threshold=0.25
        )
        assert not errors and not warnings

    def test_input_change_skips_comparison(self):
        baseline = perf.baseline_payload([_record()], "quick")
        errors, warnings = perf.check_against_baseline(
            [_record(cycles=999, input="power_law(deg=9,n=9,seed=9)")], baseline, threshold=0.25
        )
        assert not errors
        assert any("skipping comparison" in w for w in warnings)

    def test_missing_bench_warns(self):
        baseline = perf.baseline_payload([_record()], "quick")
        errors, warnings = perf.check_against_baseline(
            [_record(bench="radii")], baseline, threshold=0.25
        )
        assert not errors
        assert any("no baseline record" in w for w in warnings)

    def test_per_engine_wall_regression_names_the_engine(self):
        baseline = perf.baseline_payload([_multi_record()], "quick")
        fresh = _multi_record(fast=2.0, batch=3.0)  # batch got slower
        errors, warnings = perf.check_against_baseline(
            [fresh], baseline, threshold=0.25
        )
        assert not errors
        assert any("bfs (batch)" in w and "exceeds baseline" in w for w in warnings)
        assert not any("bfs (fastpath)" in w and "exceeds" in w for w in warnings)

    def test_multi_engine_within_threshold_is_clean(self):
        baseline = perf.baseline_payload([_multi_record()], "quick")
        errors, warnings = perf.check_against_baseline(
            [_multi_record(fast=2.1, batch=1.1)], baseline, threshold=0.25
        )
        assert not errors and not warnings

    def test_v1_baseline_is_rejected_not_misread(self, tmp_path):
        # The v1 shape (flat keys for one "primary" engine next to the
        # engines map) has no reader any more; a file stamped version 1
        # must fail loudly, not be compared as if it were v2.
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(dict(perf.baseline_payload([_record()], "quick"), version=1)))
        with pytest.raises(perf.PerfError, match="version 1.*reads version 2"):
            perf.read_baseline(str(path))


class TestHistory:
    def test_history_entry_is_compact_and_keyed(self):
        entry = perf.history_entry([_record()], "quick", "fastpath", git="abc1234")
        assert entry["git"] == "abc1234"
        assert entry["engine"] == "fastpath"
        assert entry["scale"] == "quick"
        assert entry["aggregate"] == {"wall_s": 1.0, "reference_wall_s": 2.0, "speedup": 2.0}
        assert entry["benches"]["bfs"] == {
            "cycles": 1000, "wall_s": 1.0, "reference_wall_s": 2.0, "speedup": 2.0,
            "sim_mcycles_per_s": 0.001,
        }
        json.dumps(entry)

    def test_append_history_replaces_same_key_point(self):
        first = perf.history_entry([_record(fast=1.0)], "quick", "fastpath", git="abc")
        rerun = perf.history_entry([_record(fast=0.9)], "quick", "fastpath", git="abc")
        history = perf.append_history([], first)
        history = perf.append_history(history, rerun)
        assert len(history) == 1
        assert history[0]["benches"]["bfs"]["wall_s"] == 0.9
        newer = perf.history_entry([_record()], "quick", "fastpath", git="def")
        history = perf.append_history(history, newer)
        assert [e["git"] for e in history] == ["abc", "def"]

    def test_append_history_caps_at_limit(self):
        history = []
        for i in range(5):
            entry = perf.history_entry([_record()], "quick", "fastpath", git="g%d" % i)
            history = perf.append_history(history, entry, limit=3)
        assert [e["git"] for e in history] == ["g2", "g3", "g4"]

    def test_write_baseline_grows_history_keeps_latest_on_top(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        perf.write_baseline([_record(fast=1.0)], "quick", path=path, git="aaa")
        payload = perf.write_baseline([_record(fast=0.5, slow=2.0)], "quick",
                                      path=path, git="bbb")
        loaded = perf.read_baseline(path)
        assert loaded == json.loads(json.dumps(payload))
        assert [e["git"] for e in loaded["history"]] == ["aaa", "bbb"]
        # Top-level records stay the latest measurement: the regression
        # baseline the checker reads.
        assert loaded["records"][0]["engines"]["fastpath"]["wall_s"] == 0.5
        assert loaded["aggregate"]["fastpath"]["speedup"] == 4.0

    def test_git_describe_never_raises(self, tmp_path):
        assert perf.git_describe(cwd=str(tmp_path)) == "unknown"
        assert isinstance(perf.git_describe(cwd=REPO_ROOT), str)

    def test_write_baseline_multi_engine_grows_one_point_per_engine(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        loaded = json.loads(json.dumps(
            perf.write_baseline([_multi_record()], "quick", path=path, git="abc")
        ))
        keys = {(e["engine"], e["git"]) for e in loaded["history"]}
        assert keys == {("fastpath", "abc"), ("batch", "abc")}
        by_engine = {e["engine"]: e for e in loaded["history"]}
        assert by_engine["fastpath"]["benches"]["bfs"]["wall_s"] == 2.0
        assert by_engine["batch"]["benches"]["bfs"]["wall_s"] == 1.0
        assert by_engine["batch"]["aggregate"]["speedup"] == 4.0


class _FakeCompleted:
    def __init__(self, returncode=0, stdout=""):
        self.returncode = returncode
        self.stdout = stdout


class TestGitDescribeHardening:
    """``git describe`` fails in shallow clones and exported trees; the
    history key must degrade to the short hash, never embed error text."""

    def _patch(self, monkeypatch, outcomes):
        def fake_run(argv, **kwargs):
            result = outcomes.get(argv[1])
            if isinstance(result, Exception):
                raise result
            return result

        monkeypatch.setattr(perf.subprocess, "run", fake_run)

    def test_clean_describe_wins(self, monkeypatch):
        self._patch(monkeypatch, {
            "describe": _FakeCompleted(0, "v1.2-4-gabc123-dirty\n"),
        })
        assert perf.git_describe() == "v1.2-4-gabc123-dirty"

    def test_failed_describe_falls_back_to_short_hash(self, monkeypatch):
        self._patch(monkeypatch, {
            "describe": _FakeCompleted(128, "fatal: no names found\n"),
            "rev-parse": _FakeCompleted(0, "abc123\n"),
        })
        assert perf.git_describe() == "abc123"

    def test_error_text_on_stdout_is_rejected(self, monkeypatch):
        # Some git builds/wrappers print diagnostics to stdout with rc 0.
        self._patch(monkeypatch, {
            "describe": _FakeCompleted(0, "fatal: not a git repository\n"),
            "rev-parse": _FakeCompleted(0, "error: bad object\n"),
        })
        assert perf.git_describe() == "unknown"

    def test_multiline_or_multiword_output_is_rejected(self, monkeypatch):
        self._patch(monkeypatch, {
            "describe": _FakeCompleted(0, "warning: shallow\nv1.0\n"),
            "rev-parse": _FakeCompleted(0, "deadbee\n"),
        })
        assert perf.git_describe() == "deadbee"

    def test_missing_git_binary_is_unknown(self, monkeypatch):
        self._patch(monkeypatch, {
            "describe": OSError("no git"),
            "rev-parse": OSError("no git"),
        })
        assert perf.git_describe() == "unknown"


class TestRendering:
    def test_table_mentions_every_bench_and_total(self):
        records = [_record(), _record(bench="cc")]
        table = perf.render_table(records, perf.aggregate(records))
        assert "bfs" in table and "cc" in table and "total" in table

    def test_table_grows_engine_columns(self):
        records = [_multi_record(), _multi_record(bench="cc")]
        table = perf.render_table(records, perf.aggregate(records))
        assert "batch(s)" in table and "batch(x)" in table
        assert "4.00x" in table  # the batch speedup column

    def test_obs_records_one_per_engine(self):
        out = perf.obs_records([_record()])
        assert len(out) == 2
        assert {r["variant"] for r in out} == {"engine-reference", "engine-fastpath"}
        assert all(r["schema"] == "repro.obs/run-record" for r in out)
        assert all(r["cycles"] == 1000 for r in out)

    def test_obs_records_cover_batch(self):
        out = perf.obs_records([_multi_record()])
        assert {r["variant"] for r in out} == {
            "engine-reference", "engine-fastpath", "engine-batch",
        }


#: Runs the harness on tiny inputs and prints {bench: cycles} as JSON.
#: sssp and spmv represent the GARDENIA suite: sssp exercises the weighted
#: input path and bucket loops; spmv the matrix path with an RA chain.
_DETERMINISM_SCRIPT = """
import json, sys
from repro.bench import perf
perf.SCALES["quick"] = {
    "bfs": ("power_law", {"n": 120, "deg": 3, "seed": 7}),
    "spmm": ("random_matrix", {"n": 16, "nnz_per_row": 3, "seed": 7}),
    "sssp": ("power_law_weighted", {"n": 120, "deg": 3, "seed": 7, "wseed": 1}),
    "spmv": ("random_matrix", {"n": 48, "nnz_per_row": 3, "seed": 7}),
}
records = perf.run_perf(scale="quick", repeats=1, jobs=int(sys.argv[1]))
print(json.dumps({r["bench"]: r["cycles"] for r in records}, sort_keys=True))
"""


def _run_harness(jobs, hashseed, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONHASHSEED"] = str(hashseed)
    env["REPRO_QUIET"] = "1"
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    proc = subprocess.run(
        [sys.executable, "-c", _DETERMINISM_SCRIPT, str(jobs)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestDeterminism:
    def test_cycles_identical_across_processes_and_hashseeds(self, tmp_path):
        first = _run_harness(jobs=1, hashseed=1, tmp_path=tmp_path)
        second = _run_harness(jobs=1, hashseed=271828, tmp_path=tmp_path)
        assert first == second
        assert set(first) == {"bfs", "spmm", "sssp", "spmv"}

    def test_cycles_identical_across_worker_counts(self, tmp_path):
        serial = _run_harness(jobs=1, hashseed=5, tmp_path=tmp_path)
        fanned = _run_harness(jobs=2, hashseed=5, tmp_path=tmp_path)
        assert serial == fanned
