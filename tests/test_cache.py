"""Memo layers: hits, misses, invalidation, disk persistence."""

import pytest

from repro import CompileOptions, cache
from repro.ir import fingerprint
from repro.pipette.config import SCALED_1CORE
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
    first = cache.cached_serial_run(fn, arrays, scalars, tiny_config)
    arrays2, scalars2 = bfs.make_env(graph)
    second = cache.cached_serial_run(fn, arrays2, scalars2, tiny_config)
    assert cache.stats()["baseline"] == {"hits": 1, "misses": 1}
    assert second.cycles == first.cycles
    assert second.measured == first.measured
    assert set(first.measured) == {"cycles", "summary", "breakdown", "energy"}
    assert bfs.check(second.arrays, graph)


def test_serial_baseline_keyed_on_input_and_config(tiny_config):
    fn = bfs.function()
    a, s = bfs.make_env(uniform_random(80, 3, seed=1))
    b, t = bfs.make_env(uniform_random(80, 3, seed=2))
    cache.cached_serial_run(fn, a, s, tiny_config)
    cache.cached_serial_run(fn, b, t, tiny_config)
    cache.cached_serial_run(fn, a, s, SCALED_1CORE)
    assert cache.stats()["baseline"] == {"hits": 0, "misses": 3}


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
    before = cache.stats_snapshot()
    cache.cached_compile(fn, CompileOptions(num_stages=3))
    delta = cache.stats_delta(before)
    assert delta[("pipeline", "misses")] == 1
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
    from repro import api

    return api.handle(api.CompileRequest(source=KERNEL % (index, index), fmt="summary"))


def test_memory_layer_is_a_bounded_lru(monkeypatch):
    monkeypatch.setattr(cache, "MEMORY_ENTRIES", 4)
    for index in range(3):
        assert _emit(index).cache["pipeline"] == {"hits": 0, "misses": 1}
    # Each source holds two entries (source key + IR key): the third evicted
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
    before = cache.stats_snapshot()
    cache.cached_search(("a",), lambda: {"v": 1})
    cache.cached_search(("b",), lambda: {"v": 1})
    delta = cache.stats_delta(before)
    assert (delta[("search", "hits")], delta[("search", "misses")]) == (1, 1)


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
    assert len(entries) == 2  # source key + IR key
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


def test_lookup_only_unbooks_the_hits_of_a_sequence_that_misses():
    cache.cached_search(("warm",), lambda: {"v": 1})
    before = cache.stats()
    with pytest.raises(cache.Miss):
        with cache.lookup_only():
            cache.cached_search(("warm",), _never)
            cache.cached_search(("cold",), _never)
    assert cache.stats() == before


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

    source = KERNEL % (0, 0)
    options = CompileOptions()
    verified = CompileOptions(verify_each=True)
    function = cache.cached_compile_source(source, None, options)
    cache.cached_lint(source, None, options)
    monkeypatch.setattr(compiler, "compile_function", _never)
    monkeypatch.setattr(sanitize, "lint_source", _never)
    before = cache.stats()
    with cache.lookup_only():
        assert cache.cached_compile_source(source, None, options) is function  # the shared entry
        assert len(cache.cached_lint(source, None, options)) == 0
    for call in (
        lambda: cache.cached_compile_source(source, None, verified),
        lambda: cache.cached_lint(source, None, verified),
        lambda: cache.cached_compile(bfs.function(), verified),
    ):
        with pytest.raises(cache.Miss):
            with cache.lookup_only():
                call()
    assert cache.stats()["pipeline"] == {
        "hits": before["pipeline"]["hits"] + 2, "misses": before["pipeline"]["misses"]
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
