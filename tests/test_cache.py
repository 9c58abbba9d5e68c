"""Memo layers: hits, misses, invalidation, disk persistence."""

import copy
import json
from dataclasses import replace

import pytest

from repro import CompileOptions, api, cache, ir
from repro.ir import fingerprint
from repro.obs.record import measure, record_of
from repro.pipette.config import SCALED_1CORE
from repro.runtime.executor import run_pipeline, run_serial
from repro.workloads import bfs
from repro.workloads.graphs import uniform_random


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the disk layer at a fresh directory; start from zero."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    cache.reset()
    yield
    cache.reset()


def test_compile_cache_hit():
    fn = bfs.function()
    options = CompileOptions(num_stages=3)
    first = cache.cached_compile(fn, options)
    second = cache.cached_compile(fn, options)
    assert cache.stats()["pipeline"] == {"hits": 1, "misses": 1}
    assert fingerprint(first) == fingerprint(second)
    assert first is not second  # callers get independent clones
    assert second.intrinsics.keys() == fn.intrinsics.keys()


def test_compile_cache_invalidated_by_option_change():
    fn = bfs.function()
    cache.cached_compile(fn, CompileOptions(num_stages=3))
    cache.cached_compile(fn, CompileOptions(num_stages=3, queue_capacity=8))
    cache.cached_compile(fn, CompileOptions(num_stages=4))
    assert cache.stats()["pipeline"] == {"hits": 0, "misses": 3}


def test_compile_cache_survives_memory_reset():
    fn = bfs.function()
    options = CompileOptions(num_stages=3)
    warm = cache.cached_compile(fn, options)
    cache.reset()  # drop the in-process dicts; the pickle dir remains
    from_disk = cache.cached_compile(fn, options)
    assert cache.stats()["pipeline"] == {"hits": 1, "misses": 0}
    assert fingerprint(from_disk) == fingerprint(warm)


def test_no_cache_env_disables_disk(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert cache.cache_dir() is None
    fn = bfs.function()
    options = CompileOptions(num_stages=3)
    cache.cached_compile(fn, options)
    cache.reset()
    cache.cached_compile(fn, options)
    assert cache.stats()["pipeline"] == {"hits": 0, "misses": 1}


def test_serial_baseline_cache(tiny_config):
    fn = bfs.function()
    graph = uniform_random(80, 3, seed=1)
    arrays, scalars = bfs.make_env(graph)
    first = cache.cached_run(fn, arrays, scalars, tiny_config)
    arrays2, scalars2 = bfs.make_env(graph)
    second = cache.cached_run(fn, arrays2, scalars2, tiny_config)
    assert cache.stats()["baseline"] == {"hits": 1, "misses": 1}
    assert second.cycles == first.cycles
    assert measure(second) == measure(first)
    assert set(measure(first)) == {"cycles", "summary", "breakdown", "energy", "stage_engines"}
    assert bfs.check(second.arrays, graph)
    live = run_serial(fn, arrays, scalars, config=tiny_config)
    assert measure(second) == measure(live) and second.arrays == live.arrays
    assert second.stage_fallbacks == live.stage_fallbacks == {}


def test_serial_baseline_keyed_on_input_and_config(tiny_config):
    fn = bfs.function()
    a, s = bfs.make_env(uniform_random(80, 3, seed=1))
    b, t = bfs.make_env(uniform_random(80, 3, seed=2))
    cache.cached_run(fn, a, s, tiny_config)
    cache.cached_run(fn, b, t, tiny_config)
    cache.cached_run(fn, a, s, SCALED_1CORE)
    assert cache.stats()["baseline"] == {"hits": 0, "misses": 3}


def test_run_key_covers_the_program_and_the_stage_placement(tiny_config):
    fn = bfs.function()
    pipeline = cache.cached_compile(fn, CompileOptions(num_stages=3))
    a, s = bfs.make_env(uniform_random(80, 3, seed=1))
    spatial = list(range(len(pipeline.stages)))
    cfg4 = replace(tiny_config, cores=4)
    serial = cache.cached_run(fn, a, s, cfg4)
    smt = cache.cached_run(pipeline, a, s, cfg4)
    placed = cache.cached_run(pipeline, a, s, cfg4, stage_cores=spatial)
    assert cache.stats()["baseline"] == {"hits": 0, "misses": 3}
    assert len({serial.cycles, smt.cycles, placed.cycles}) == 3
    live = run_pipeline(pipeline, a, s, config=cfg4, stage_cores=spatial)
    assert measure(placed) == measure(live) and placed.arrays == live.arrays


def test_a_program_with_intrinsics_is_never_stored(tmp_path):
    def twice(scale):
        b = ir.IRBuilder()
        b.store("@out", 0, b.call(b.fresh(), "work", [21]))
        work = ir.Intrinsic("work", lambda x: x * scale, cost=10)
        return ir.Function("f", [], {"out": ir.ArrayDecl("out")}, b.finish(),
                           intrinsics={"work": work})

    # Same name, same cost, same fingerprint: only the callable differs.
    assert fingerprint(twice(2)) == fingerprint(twice(3))
    assert cache.cached_run(twice(2), {"out": [0]}, {}, SCALED_1CORE).arrays["out"] == [42]
    assert cache.cached_run(twice(3), {"out": [0]}, {}, SCALED_1CORE).arrays["out"] == [63]
    assert cache.stats()["baseline"] == {"hits": 0, "misses": 0}
    assert not list(tmp_path.rglob("*.pkl"))
    with pytest.raises(cache.Miss):
        with cache.lookup_only():
            cache.cached_run(twice(2), {"out": [0]}, {}, SCALED_1CORE)


def test_a_record_shares_no_mutable_object_with_the_memo(tiny_config):
    fn = bfs.function()
    arrays, scalars = bfs.make_env(uniform_random(80, 3, seed=1))
    record = record_of("bfs", "serial", "g", cache.cached_run(fn, arrays, scalars, tiny_config))
    pristine = copy.deepcopy(record)
    record["summary"]["wall_cycles"] = -1
    record["summary"]["queues"]["q9"] = {"enqs": 1}
    record["breakdown"].clear()
    record["energy"]["dram"] = -1.0
    record["stage_engines"]["r0.s0.f"] = "nobody"
    again = record_of("bfs", "serial", "g", cache.cached_run(fn, arrays, scalars, tiny_config))
    assert again == pristine


def test_env_key_tells_plain_values_apart():
    values = [1, 1.0, True, "1", None, (1,), (1.0,), (True,), [1], {"x": 1}]
    keys = {cache.fingerprint_env({"a": [value]}, {}) for value in values}
    assert len(keys) == len(values)
    # Lists, dicts, nested tuples and subclasses take the canonical path.
    class Int(int):
        pass

    assert cache.fingerprint_env({"a": [Int(1)]}, {}) != cache.fingerprint_env({"a": [1]}, {})
    assert cache.fingerprint_env({"a": [((1,),)]}, {}) == cache.fingerprint_env({"a": [((1,),)]}, {})
    # A tuple array keys like the list it is copied into.
    assert cache.fingerprint_env({"a": (1, 2)}, {}) == cache.fingerprint_env({"a": [1, 2]}, {})


def test_env_key_is_identical_across_hash_seeds():
    import os
    import subprocess
    import sys

    probe = (
        "from repro import cache\n"
        "print(cache.fingerprint_env(\n"
        "    {'b': [1, 2.5, True, None, 'x', (3, 'y')], 'a': [[1], {'k': 2, 'j': 'v'}]},\n"
        "    {'n': 3, 's': 'z'},\n"
        "))\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    keys = set()
    for seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        keys.add(proc.stdout)
    assert len(keys) == 1


def test_config_key_hashes_the_text_asdict_would_give():
    from dataclasses import asdict

    from repro.pipette.config import PIPETTE_1CORE, SCALED_4CORE, MachineConfig

    custom = MachineConfig(op_latencies={"mul": 3, "div": 12, "mod": 12, "fma": 4})
    for config in (PIPETTE_1CORE, SCALED_1CORE, SCALED_4CORE, custom):
        assert cache._config_text(config) == cache._canon(asdict(config))
        assert cache.fingerprint_config(config) == cache.content_hash("config", asdict(config))
    # No key is remembered per object: the latencies dict is mutable.
    before = cache.fingerprint_config(custom)
    custom.op_latencies["fma"] = 5
    assert cache.fingerprint_config(custom) != before
    assert cache.fingerprint_config(custom) == cache.content_hash("config", asdict(custom))


def test_search_cache_memoizes_payload():
    calls = []

    def compute():
        calls.append(1)
        return {"points": [([1], 2, 1.5)], "best": [1]}

    key_parts = ("fn-print", ["env-print"], "cfg-print", {"max_stages": 3})
    first = cache.cached_search(key_parts, compute)
    second = cache.cached_search(key_parts, compute)
    assert len(calls) == 1
    assert second == first
    assert cache.stats()["search"] == {"hits": 1, "misses": 1}


def test_stats_delta_and_merge():
    fn = bfs.function()
    before = cache.stats()
    cache.cached_compile(fn, CompileOptions(num_stages=3))
    delta = cache.stats_since(before)
    assert delta == {
        "pipeline": {"hits": 0, "misses": 1},
        "baseline": {"hits": 0, "misses": 0},
        "search": {"hits": 0, "misses": 0},
    }
    cache.merge_stats(delta)  # as the parent does for each worker
    assert cache.stats()["pipeline"]["misses"] == 2


# ---------------------------------------------------------------------------
# The in-process bound, the toolchain stamp, unreadable entries

KERNEL = """
#pragma phloem
void k%d(const int* restrict a, const int* restrict b, int* restrict out, int n) {
  for (int i = 0; i < n; i++) {
    int v = a[i];
    out[i] = b[v + %d];
  }
}
"""


def _emit(index):
    return api.handle(api.CompileRequest(source=KERNEL % (index, index), fmt="summary"))


def test_memory_layer_is_a_bounded_lru(monkeypatch):
    monkeypatch.setattr(cache, "MEMORY_ENTRIES", 4)
    for index in range(3):
        assert _emit(index).cache["pipeline"] == {"hits": 0, "misses": 1}
    # Each source holds two entries (answer key + IR key): the third evicted
    # the first's, the bound holds, and a touch keeps an entry young.
    assert len(cache._memory["pipeline"]) == 4
    assert _emit(2).cache["pipeline"] == {"hits": 1, "misses": 0}
    # The evicted source comes back as a disk hit (no recompile) ...
    assert _emit(0).cache["pipeline"] == {"hits": 1, "misses": 0}
    assert len(cache._memory["pipeline"]) == 4
    # ... and without a disk layer an evicted one is simply recomputed.
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert _emit(3).cache["pipeline"] == {"hits": 0, "misses": 1}  # pushes 1 out
    assert _emit(1).cache["pipeline"] == {"hits": 0, "misses": 1}


def test_lru_evicts_least_recently_used_not_oldest_inserted(monkeypatch):
    monkeypatch.setattr(cache, "MEMORY_ENTRIES", 2)
    for key in ("a", "b"):
        cache.cached_search((key,), lambda: {"v": 1})
    cache.cached_search(("a",), lambda: {"v": 1})  # touch: b is now the oldest
    cache.cached_search(("c",), lambda: {"v": 1})
    monkeypatch.setenv("REPRO_NO_CACHE", "1")  # memory only from here on
    before = cache.stats()
    cache.cached_search(("a",), lambda: {"v": 1})
    cache.cached_search(("b",), lambda: {"v": 1})
    assert cache.stats_since(before)["search"] == {"hits": 1, "misses": 1}


def test_toolchain_stamp_salts_every_key(monkeypatch):
    stamp = cache.toolchain_stamp()
    assert len(stamp) == 64 and stamp == cache.toolchain_stamp()
    assert _emit(0).cache["pipeline"] == {"hits": 0, "misses": 1}
    cache.reset()
    assert _emit(0).cache["pipeline"] == {"hits": 1, "misses": 0}
    # An edited pass moves the stamp: the warm entry no longer answers.
    monkeypatch.setattr(cache, "_stamp", "0" * 64)
    cache.reset()
    assert _emit(0).cache["pipeline"] == {"hits": 0, "misses": 1}


def test_toolchain_stamp_follows_the_source_files(tmp_path, monkeypatch):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n")
    (package / "sub" / "b.py").write_text("y = 2\n")
    monkeypatch.setattr(cache, "__file__", str(package / "cache.py"))

    def stamp():
        monkeypatch.setattr(cache, "_stamp", None)
        return cache.toolchain_stamp()

    first = stamp()
    assert stamp() == first
    (package / "notes.txt").write_text("not source\n")
    assert stamp() == first
    (package / "sub" / "b.py").write_text("y = 3  # edited\n")
    assert stamp() != first


_CORRUPTIONS = {
    "truncated": lambda data: data[: len(data) // 2],
    "empty": lambda data: b"",
    "random-bytes": lambda data: bytes((i * 37 + 11) % 256 for i in range(300)),
    "wrong-protocol": lambda data: b"\x80\x63" + data[2:],
    "moved-module": lambda data: b"crepro.no_such_module\nPipelineProgram\n.",
    "moved-class": lambda data: b"crepro.ir\nNoSuchClass\n.",
    "not-a-pickle-opcode": lambda data: b"\xff" + data,
    "stack-underflow": lambda data: b"(K\x01tR.",
    # What version skew looks like from inside a reducer: TypeError,
    # IndexError and KeyError out of ``pickle.load``.
    "reduce-type-error": lambda data: b"cbuiltins\nlen\n(tR.",
    "reduce-index-error": lambda data: b"coperator\ngetitem\n((lK\x05tR.",
    "reduce-key-error": lambda data: b"coperator\ngetitem\n((dK\x05tR.",
}


@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
def test_unreadable_entry_is_a_miss_and_is_overwritten(tmp_path, corruption):
    import os

    good = _emit(0)
    entries = [
        os.path.join(root, name)
        for root, _, names in os.walk(str(tmp_path))
        for name in names
        if name.endswith(".pkl")
    ]
    assert len(entries) == 2  # answer key + IR key
    for path in entries:
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(_CORRUPTIONS[corruption](data))
    cache.reset()
    again = _emit(0)
    assert again.cache["pipeline"] == {"hits": 0, "misses": 1}
    assert again.output == good.output
    cache.reset()
    assert _emit(0).cache["pipeline"] == {"hits": 1, "misses": 0}


# ---------------------------------------------------------------------------
# Lookup-only mode: an entry or ``Miss`` — never a compute, a lock wait, a
# booked miss or a ``verify_each`` answer


def _never(*args, **kwargs):
    raise AssertionError("lookup-only mode must not get here")


def test_lookup_only_returns_an_entry_or_raises_miss(monkeypatch):
    cache.cached_search(("warm",), lambda: {"v": 1})
    cache.reset(stats=False)  # the entry is on disk only
    monkeypatch.setattr(cache, "_key_lock", _never)
    before = cache.stats()
    with cache.lookup_only():
        assert cache.cached_search(("warm",), _never) == {"v": 1}  # disk, unlocked
        assert cache.cached_search(("warm",), _never) == {"v": 1}  # now memory
    assert cache.stats()["search"] == {"hits": before["search"]["hits"] + 2, "misses": 1}
    with pytest.raises(cache.Miss):
        with cache.lookup_only():
            cache._get_or_compute("search", cache.content_hash("search", "cold"), _never)
    assert cache.stats()["search"]["misses"] == 1  # the miss is whoever computes' to book


def test_lookup_only_is_restored_after_any_exit():
    with pytest.raises(cache.Miss):
        with cache.lookup_only():
            cache.cached_search(("cold",), _never)
    with pytest.raises(ZeroDivisionError):
        with cache.lookup_only():
            with cache.lookup_only():  # nests
                pass
            with pytest.raises(cache.Miss):
                cache.cached_search(("cold",), _never)
            raise ZeroDivisionError
    # Back to compute-on-miss.
    assert cache.cached_search(("cold",), lambda: {"v": 2}) == {"v": 2}
    assert cache.stats()["search"] == {"hits": 0, "misses": 1}


def test_lookup_only_treats_verify_each_as_a_miss(monkeypatch):
    from repro.analysis import sanitize
    from repro.core import compiler
    from repro.frontend import lowering

    source = KERNEL % (0, 0)
    options = CompileOptions()
    verified = CompileOptions(verify_each=True)
    emit = api.CompileRequest(source=source, fmt="summary")
    answer = api.handle(emit)
    cache.cached_lint(source, None, options)
    for module, name in ((compiler, "compile_function"), (sanitize, "lint_source"),
                         (lowering, "compile_source")):
        monkeypatch.setattr(module, name, _never)
    before = cache.stats()
    with cache.lookup_only():
        shared = cache.cached_answer(emit.VERB, emit.fields(), _never)
        assert cache.cached_answer(emit.VERB, emit.fields(), _never) is shared  # the entry
        assert api.handle(emit).output == answer.output
        assert len(cache.cached_lint(source, None, options)) == 0
    for call in (
        lambda: api.handle(emit.replace(verify_each=True)),
        lambda: cache.cached_answer(emit.VERB, dict(emit.fields(), verify_each=True), _never),
        lambda: cache.cached_lint(source, None, verified),
        lambda: cache.cached_compile(bfs.function(), verified),
    ):
        with pytest.raises(cache.Miss):
            with cache.lookup_only():
                call()
    assert cache.stats()["pipeline"] == {
        "hits": before["pipeline"]["hits"] + 4, "misses": before["pipeline"]["misses"]
    }


def test_lookup_only_is_per_thread():
    import threading

    seen = []
    with cache.lookup_only():
        worker = threading.Thread(
            target=lambda: seen.append(cache.cached_search(("other-thread",), lambda: {"v": 3}))
        )
        worker.start()
        worker.join(10)
    assert seen == [{"v": 3}]


# ---------------------------------------------------------------------------
# The run memo behind the harness: a warm request simulates nothing and
# answers exactly what a cold one did


def _without_cache(records):
    return [{key: value for key, value in r.items() if key != "cache"} for r in records]


def _payload(response):
    """What a client sees of a demo/metrics response, minus the ``cache``
    section (metrics prints its records as JSON lines)."""
    if isinstance(response, api.MetricsResponse):
        return _without_cache(json.loads(line) for line in response.output.splitlines())
    return response.output


@pytest.mark.parametrize("bench, size", [("bfs", 200), ("spmm", 1500)])
@pytest.mark.parametrize("verb", [api.RunRequest, api.MetricsRequest], ids=["demo", "metrics"])
def test_warm_request_answers_what_the_cold_one_did(verb, bench, size, monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    request = verb(bench=bench, size=size)
    cold = api.handle(request)
    warm = api.handle(request)
    cache.reset()
    from_disk = api.handle(request)
    assert cold.ok and cold.cache["baseline"] == {"hits": 0, "misses": 4}
    for again in (warm, from_disk):
        assert again.cache["baseline"] == {"hits": 4, "misses": 0}
        assert _payload(again) == _payload(cold)
        assert _without_cache(again.records) == _without_cache(cold.records)
    assert all(set(r["stage_engines"].values()) == {"batch"} for r in warm.records)


def test_another_engine_is_a_miss_named_after_it(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    request = api.RunRequest(bench="bfs", size=100)
    batch = api.handle(request)
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    reference = api.handle(request)
    assert reference.cache["baseline"] == {"hits": 0, "misses": 4}
    assert all(set(r["stage_engines"].values()) == {"reference"} for r in reference.records)
    assert reference.output == batch.output
    again = api.handle(request)
    assert again.cache["baseline"] == {"hits": 4, "misses": 0}
    assert again.records == reference.records


def test_run_suite_books_one_miss_per_distinct_run(tiny_config):
    from repro.bench.harness import adapter_for, run_suite
    from repro.workloads.datasets import Input

    items = [
        Input("g%d" % seed, "synthetic", lambda seed=seed: uniform_random(80, 3, seed=seed))
        for seed in (1, 2)
    ]
    variants = ("serial", "data-parallel", "phloem-static")
    cold = run_suite(adapter_for("bfs"), items, [], config=tiny_config, variants=variants, jobs=2)
    assert cache.stats()["baseline"] == {"hits": 0, "misses": 6}
    warm = run_suite(adapter_for("bfs"), items, [], config=tiny_config, variants=variants, jobs=2)
    assert cache.stats()["baseline"] == {"hits": 6, "misses": 6}
    assert warm.records == cold.records and all(r["ok"] for r in cold.records)


def test_traced_and_timed_runs_are_never_answered_from_the_memo(tmp_path, monkeypatch):
    trace = api.TraceRequest(bench="bfs", size=100, quiet=True)
    first, second = api.handle(trace), api.handle(trace)
    # The serial baseline is the one lookup; the traced run simulates.
    assert first.cache["baseline"] == {"hits": 0, "misses": 1}
    assert second.cache["baseline"] == {"hits": 1, "misses": 0}
    assert second.output == first.output
    monkeypatch.chdir(tmp_path)
    perf = api.BenchPerfRequest(benches=("spmv",), repeats=1, quiet=True, baseline="none.json")
    for _ in range(2):
        assert api.handle(perf).cache["baseline"] == {"hits": 0, "misses": 0}
