"""The stage-code store: source -> function, in process and on disk.

Covers the assembler (shared-node AST ≡ parsed source), the on-disk store
(miss then hit across fresh processes, damaged entries, ``REPRO_NO_CACHE``,
unwritable directory, racing writers) and the in-process table (one
function per source text, shared by the workers of a data-parallel run).
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.bench.harness import adapter_for
from repro.core import CompileOptions, compile_function
from repro.obs import Tracer
from repro.pipette import batchpath, stagecode
from repro.runtime import run_pipeline

REPO_ROOT = str(pathlib.Path(__file__).resolve().parents[2])


@pytest.fixture
def sources(monkeypatch):
    """Every source text handed to the store while the fixture is live."""
    seen = []

    def recording(source):
        seen.append(source)
        return stagecode.stage_function(source)

    monkeypatch.setattr(batchpath, "stage_function", recording)
    return seen


@pytest.fixture
def store(tmp_path, monkeypatch):
    """A private, empty store directory and a cold in-process table."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setattr(stagecode, "_STAGE_FNS", {})
    return tmp_path / "stagecode"


def _bfs(micro_graph):
    adapter = adapter_for("bfs")
    arrays, scalars = adapter.env(micro_graph)
    return compile_function(adapter.function(), options=CompileOptions()), arrays, scalars


def test_assembled_tree_equals_parsed_source(sources, micro_graph, tiny_config):
    pipeline, arrays, scalars = _bfs(micro_graph)
    run_pipeline(pipeline, arrays, scalars, config=tiny_config, engine="batch")
    run_pipeline(  # the traced variant emits the tracer hooks too
        pipeline, arrays, scalars, config=tiny_config, engine="batch", tracer=Tracer()
    )
    adapter = adapter_for("bc")  # atomics, barriers, shared cells
    dp_arrays, dp_scalars = adapter.dp_env(micro_graph, 3)
    run_pipeline(adapter.dp_pipeline(3), dp_arrays, dp_scalars, config=tiny_config, engine="batch")
    assert len(set(sources)) >= 7
    for source in set(sources):
        assert ast.dump(stagecode._assemble(source)) == ast.dump(ast.parse(source))


@pytest.mark.parametrize(
    "source",
    [
        "x = 1\n  y = 2\n",  # indented continuation of a simple statement
        "with a:\n    x = 1\n",  # a compound statement the emitter never writes
        "if x:\n    y = 1  # why\n    # a comment line\n    z = 2\n",
    ],
)
def test_assembler_rejects_what_the_emitter_never_writes(source):
    with pytest.raises((SyntaxError, KeyError, AttributeError)):
        stagecode._assemble(source)


def test_data_parallel_workers_share_one_function(sources, micro_graph, tiny_config):
    adapter = adapter_for("bfs")
    arrays, scalars = adapter.dp_env(micro_graph, 4)
    result = run_pipeline(adapter.dp_pipeline(4), arrays, scalars, config=tiny_config, engine="batch")
    assert len(sources) == 4 and len(set(sources)) == 1  # thread ids bind per run
    assert adapter.check_dp(result.arrays, micro_graph)


def test_source_property_regenerates_the_text(sources, micro_graph, tiny_config, monkeypatch):
    pipeline, arrays, scalars = _bfs(micro_graph)
    made = []
    original = batchpath._CompiledStage.__init__

    def spy(self, *args):
        original(self, *args)
        made.append(self)

    monkeypatch.setattr(batchpath._CompiledStage, "__init__", spy)
    run_pipeline(pipeline, arrays, scalars, config=tiny_config, engine="batch")
    assert [interp.source for interp in made] == sources
    assert not any("source" in vars(interp) for interp in made)


# -- the on-disk store ---------------------------------------------------------

_CHILD = """
import json, sys
from repro.bench.harness import adapter_for
from repro.core import CompileOptions, compile_function
from repro.pipette import stagecode
from repro.runtime import run_pipeline
from repro.workloads.graphs import uniform_random

calls = []
builtin_compile = compile
def counting(*args, **kwargs):
    calls.append(args[1])
    return builtin_compile(*args, **kwargs)
stagecode.compile = counting  # shadows the builtin inside the module

adapter = adapter_for("bfs")
graph = uniform_random(60, 3, seed=5)
arrays, scalars = adapter.env(graph)
pipeline = compile_function(adapter.function(), options=CompileOptions())
result = run_pipeline(pipeline, arrays, scalars)
print(json.dumps({
    "compiles": len(calls),
    "engines": sorted(set(result.stage_engines.values())),
    "summary": result.stats.summary(),
    "ok": adapter.check(result.arrays, graph),
}))
"""


def _child_env(cache_dir, **extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.update(extra)
    return env


def _child(cache_dir, **extra):
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], env=_child_env(cache_dir, **extra),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_miss_then_hit_across_fresh_processes(tmp_path):
    first = _child(tmp_path)
    entries = sorted(os.listdir(tmp_path / "stagecode"))
    second = _child(tmp_path)
    assert first["compiles"] == len(entries) >= 3
    assert second["compiles"] == 0  # every stage instantiated from the store
    assert first["engines"] == second["engines"] == ["batch"]
    assert first["ok"] and second["ok"]
    assert first["summary"] == second["summary"]
    assert all(name.endswith("." + sys.implementation.cache_tag) for name in entries)
    assert sorted(os.listdir(tmp_path / "stagecode")) == entries  # nothing rewritten, no temp files


def test_no_cache_writes_nothing(tmp_path):
    out = _child(tmp_path, REPRO_NO_CACHE="1")
    assert out["compiles"] >= 3 and out["ok"]
    assert not os.path.exists(tmp_path / "stagecode")


def test_unwritable_directory_degrades_to_in_process(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")  # makedirs below a regular file fails for root too
    out = _child(blocker / "cache")
    assert out["compiles"] >= 3 and out["ok"] and out["engines"] == ["batch"]
    assert blocker.read_text() == ""


def test_racing_processes_both_succeed(tmp_path):
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _CHILD], env=_child_env(tmp_path),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(3)
    ]
    outs = []
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        outs.append(json.loads(stdout))
    assert all(out["ok"] and out["summary"] == outs[0]["summary"] for out in outs)
    entries = os.listdir(tmp_path / "stagecode")
    assert not [name for name in entries if name.endswith(".tmp")]
    assert _child(tmp_path)["compiles"] == 0  # whoever won, the entries are sound


_SOURCE = "def __batch_stage(C):\n    if False:\n        yield BLOCKED\n    C['out'] = 41 + 1\n"


def _entry(store):
    (name,) = os.listdir(store)
    return store / name


@pytest.mark.parametrize(
    "damage",
    [
        lambda blob: blob[: len(blob) // 2],  # truncated
        lambda blob: b"\x00garbage\xff" * 7,  # not ours at all
        lambda blob: b"repro.stagecode:30a00f0\n" + blob.split(b"\n", 1)[1],  # other build
        lambda blob: blob.split(b"\n", 1)[0] + b"\n" + b"i\x07\x00\x00\x00",  # valid marshal, not code
        lambda blob: b"",
    ],
    ids=["truncated", "garbage", "other-build", "not-code", "empty"],
)
def test_damaged_entry_is_recompiled_and_replaced(store, damage):
    stagecode.stage_function(_SOURCE)
    path = _entry(store)
    good = path.read_bytes()
    path.write_bytes(damage(good))
    stagecode._STAGE_FNS.clear()
    captures = {}
    list(stagecode.stage_function(_SOURCE)(captures))
    assert captures == {"out": 42}
    assert path.read_bytes() == good
    assert os.listdir(store) == [path.name]


def test_in_process_table_serves_repeat_requests(store, monkeypatch):
    fn = stagecode.stage_function(_SOURCE)
    monkeypatch.setattr(stagecode, "compile", None, raising=False)  # any compile would raise
    _entry(store).unlink()
    assert stagecode.stage_function(_SOURCE) is fn


def test_digest_is_salted_with_the_package_version(store, monkeypatch):
    import repro

    stagecode.stage_function(_SOURCE)
    monkeypatch.setattr(repro, "__version__", repro.__version__ + ".post1")
    stagecode._STAGE_FNS.clear()
    stagecode.stage_function(_SOURCE)
    assert len(os.listdir(store)) == 2
