"""A verb imports only the layers it runs (one-shot), the client imports no
server and no toolchain, and a daemon imports everything.

``test_cli_has_no_toolchain_imports`` reads ``cli.py``'s text; these read
``sys.modules`` of real processes, which is what a cold CLI start pays for.
"""

import importlib
import json
import os
import pickle
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

KERNEL = """
#pragma phloem
void k(const int* restrict a, const int* restrict b, int* restrict out, int n) {
  for (int i = 0; i < n; i++) {
    int v = a[i];
    out[i] = b[v];
  }
}
"""

#: Runs ``python -m repro <argv>`` and then prints the ``repro`` modules the
#: process loaded, plus the stdlib modules a verb should not need (the
#: ``html`` the report pulls in and ``dataclasses``), as one JSON line after
#: the verb's stdout.
_PROBE = """
import json, runpy, sys
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
loaded = [
    m for m in sys.modules
    if m.startswith("repro.") or m in ("html", "dataclasses")
]
print(json.dumps(sorted(loaded)))
"""

#: What a cold ``emit``/``lint`` must not pay for inside ``repro.obs``: it
#: logs, and never renders a report, a trace or a timeline.
OBS_BANNED = {"repro.obs.report", "repro.obs.chrometrace", "repro.obs.timeline", "html"}

#: What ``emit`` answered from the memo must not pay for on top of that: it
#: unpickles its finished answer (plain data), and never parses, analyzes,
#: compiles, loads the IR or renders anything.
WARM_EMIT_BANNED = {
    "repro.frontend", "repro.analysis", "repro.core", "repro.ir", "repro.diag", "dataclasses",
}


def _loaded_by(tmp_path, *argv):
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_CACHE_DIR=str(tmp_path / "cache"))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE] + list(argv),
        capture_output=True, text=True, env=env, timeout=120, cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    *output, loaded = proc.stdout.splitlines()
    return output, set(json.loads(loaded))


def _banned(loaded, banned):
    """The loaded modules that are, or live inside, a banned name."""
    return sorted(m for m in loaded if any(m == b or m.startswith(b + ".") for b in banned))


@pytest.mark.parametrize("warm", [False, True], ids=["cold-store", "warm-store"])
def test_emit_loads_no_simulator_workloads_or_harness(tmp_path, warm):
    (tmp_path / "k.c").write_text(KERNEL)
    for _ in range(2 if warm else 1):
        output, loaded = _loaded_by(tmp_path, "emit", "k.c", "--format", "summary")
    assert output == ["k: 2 stages + 2 RAs, 3 queues, 5 stmts"]
    banned = {"repro.pipette", "repro.runtime", "repro.bench", "repro.workloads"} | OBS_BANNED
    if warm:
        banned |= WARM_EMIT_BANNED
        assert len([m for m in loaded if m.startswith("repro.")]) <= 20, sorted(loaded)
    assert not _banned(loaded, banned)
    if not warm:
        assert "repro.core.options" in loaded  # the probe sees what the verb did load


def test_lint_bench_loads_no_simulator_or_harness(tmp_path):
    banned = {"repro.pipette", "repro.runtime", "repro.bench"} | OBS_BANNED
    output, loaded = _loaded_by(tmp_path, "lint", "--bench", "bfs")
    assert output == ["bfs: clean"]
    assert not _banned(loaded, banned)
    assert "repro.workloads" in loaded
    # The perf model prices Table III from constants that live outside the
    # simulator package, so --perf adds analyzers and no simulator.
    output, loaded = _loaded_by(tmp_path, "lint", "--bench", "bfs", "--perf")
    assert output[0] == "bfs:" and "PHL401" in "\n".join(output)
    assert not _banned(loaded, banned)
    assert "repro.analysis.perfmodel" in loaded


def test_import_repro_is_lazy_and_its_exports_still_resolve():
    probe = (
        "import sys, repro\n"
        "early = sorted(m for m in sys.modules if m.startswith('repro.'))\n"
        "assert early == [], early\n"
        "assert set(repro.__all__) <= set(dir(repro))\n"
        "from repro import CompileOptions, compile_source\n"
        "assert 'repro.pipette' not in sys.modules\n"
        "assert callable(repro.run_pipeline) and 'repro.runtime' in sys.modules\n"
        "assert repro.SCALED_1CORE is sys.modules['repro.pipette'].SCALED_1CORE\n"
        "assert 'run_pipeline' in vars(repro)  # resolved once, then a plain attribute\n"
        "try:\n"
        "    repro.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('unknown attribute resolved')\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_every_top_level_export_resolves():
    import repro

    assert repro.__all__ == [
        "ALL_PASSES", "CompileOptions", "compile_c", "compile_function", "replicate_pipeline",
        "compile_source", "PIPETTE_1CORE", "PIPETTE_4CORE", "SCALED_1CORE", "SCALED_4CORE",
        "MachineConfig", "describe_run", "run_pipeline", "run_replicated", "run_serial",
    ]
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_every_obs_export_resolves():
    from repro import obs

    assert obs.__all__ == [
        "Tracer", "export_chrome_trace", "validate_chrome_trace", "write_chrome_trace",
        "summarize_timeline", "render_timeline", "PassProfiler", "SearchRecorder",
        "RECORD_SCHEMA", "RECORD_VERSION", "run_record", "record_of", "stamp_cache",
        "by_kernel", "gmean_speedups", "normalized", "merge_records", "write_jsonl",
        "read_jsonl", "ExperimentReport", "collect", "render_markdown", "render_html", "spark",
        "REPORT_SCHEMA", "REPORT_VERSION", "log", "set_quiet", "get_quiet", "is_quiet",
    ]
    assert set(obs.__all__) <= set(dir(obs))
    for name in obs.__all__:
        assert getattr(obs, name) is not None, name
    assert obs.Tracer is sys.modules["repro.obs.tracer"].Tracer
    # ``log`` is also a submodule's name: the package attribute is the function.
    assert obs.log is sys.modules["repro.obs.log"].log
    with pytest.raises(AttributeError, match="no_such_name"):
        obs.no_such_name


@pytest.mark.parametrize("package", ["core", "ir", "analysis", "frontend"])
def test_every_toolchain_package_export_resolves(package):
    """The toolchain packages re-export lazily; each name resolves to the
    object of the submodule that defines it."""
    module = importlib.import_module("repro." + package)
    assert module.__all__ == list(module._EXPORTS)
    assert set(module.__all__) <= set(dir(module))
    for name in module.__all__:
        owner = importlib.import_module("repro.%s.%s" % (package, module._EXPORTS[name]))
        value = getattr(module, name)
        assert value is getattr(owner, name), name
        assert getattr(value, "__module__", owner.__name__) == owner.__name__, name
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


def test_compile_options_is_a_frozen_value():
    """``CompileOptions`` is a plain slotted class (no ``dataclasses`` on
    the memo path) that keeps the value semantics the caches key on."""
    from repro.core.options import ALL_PASSES, CompileOptions

    options = CompileOptions(num_stages=3, passes=["cv", "ra"], point_indices=[2, 0])
    twin = CompileOptions(num_stages=3, passes=("cv", "ra"), point_indices=(2, 0))
    assert options == twin and hash(options) == hash(twin)
    assert options != CompileOptions() and options != "stages=3"
    assert (options.passes, options.point_indices) == (("cv", "ra"), (2, 0))
    with pytest.raises(AttributeError):
        options.num_stages = 5
    assert options.num_stages == 3
    verified = options.replace(verify_each=True, num_stages=2)
    assert (verified.num_stages, verified.verify_each, verified.passes) == (2, True, ("cv", "ra"))
    assert pickle.loads(pickle.dumps(verified)) == verified
    assert CompileOptions().passes == ALL_PASSES
    assert CompileOptions().cache_key() == (
        "stages=4;passes=recompute,cv,dce,handlers,ra;qcap=24;points=-"
    )
    assert verified.cache_key() == "stages=2;passes=cv,ra;qcap=24;points=2,0"
    assert repr(CompileOptions(queue_capacity=8)) == (
        "CompileOptions(num_stages=4, passes=('recompute', 'cv', 'dce', 'handlers', 'ra'), "
        "queue_capacity=8, point_indices=None, verify_each=False)"
    )


#: What ``repro submit`` must not pay for: the server half of the service
#: package and everything the server preloads.
CLIENT_BANNED = (
    "asyncio", "multiprocessing", "repro.service.daemon", "repro.service.pool",
    "repro.core", "repro.analysis", "repro.frontend", "repro.pipette", "repro.runtime",
    "repro.bench", "repro.workloads",
)


def test_client_loads_the_protocol_and_nothing_else_of_the_service():
    probe = (
        "import sys\n"
        "import repro.api.requests  # what a client needs besides the protocol\n"
        "before = {m for m in sys.modules if m.startswith('repro')}\n"
        "import repro.client\n"
        "extra = sorted({m for m in sys.modules if m.startswith('repro')} - before)\n"
        "assert extra == ['repro.client', 'repro.service', 'repro.service.protocol'], extra\n"
        "loaded = [m for m in %r if m in sys.modules]\n"
        "assert loaded == [], loaded\n"
        "# The package's re-exports resolve on first use, from the module that owns them.\n"
        "from repro.service import Daemon, RequestPool, parse_prometheus\n"
        "assert Daemon is sys.modules['repro.service.daemon'].Daemon\n"
        "assert 'Daemon' in vars(sys.modules['repro.service'])\n"
        "try:\n"
        "    sys.modules['repro.service'].no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('unknown attribute resolved')\n"
    ) % (CLIENT_BANNED,)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_every_service_export_resolves():
    from repro import service

    assert service.__all__ == [
        "Daemon", "serve_main", "REJECTED_EXIT_CODE", "RequestPool", "execute_wire",
        "TokenBucket", "ClientGovernor", "RATE_LIMITED", "QUOTA_EXCEEDED",
        "ServiceTelemetry", "LatencyHistogram", "LATENCY_BUCKETS_S", "TELEMETRY_SCHEMA",
        "TELEMETRY_VERSION", "render_prometheus", "parse_prometheus",
    ]
    assert set(service.__all__) <= set(dir(service))
    for name in service.__all__:
        assert getattr(service, name) is not None, name


def test_daemon_preload_covers_every_verb(tmp_path):
    """After ``preload()`` no request imports anything: a forked worker's
    first request costs what its hundredth does."""
    probe = """
import os, sys
from repro import api
from repro.service.pool import preload
preload()
before = set(sys.modules)
source = open("k.c").read()
requests = [api.CompileRequest(source=source, fmt=fmt) for fmt in ("c", "ir", "summary", "diagram")]
requests += [
    api.CompileRequest(source=source, verify_each=True),
    api.LintRequest(bench="bfs", perf=True, json=True),
    api.LintRequest(source="void f(", file="x.c"),
    api.RunRequest(bench="bfs", size=200),
    api.RunRequest(bench="spmm", size=1500),
    api.MetricsRequest(bench="cc", size=200, quiet=True, profile_passes=True),
    api.TraceRequest(bench="bfs", size=200, quiet=True, profile_passes=True,
                     trace_out="t.json", metrics_out="m.jsonl"),
    api.BenchPerfRequest(benches=("spmv",), repeats=1, quiet=True, baseline="none.json"),
    api.ReportRequest(results_dir=".", quiet=True, html_out="r.html"),
    api.FiguresRequest(names=("fig99",), quiet=True),  # exits 2, once the registry is loaded
]
for request in requests:
    api.handle(request)
late = sorted(m for m in set(sys.modules) - before if m.startswith("repro"))
assert late == [], late
"""
    (tmp_path / "k.c").write_text(KERNEL)
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_CACHE_DIR=str(tmp_path / "cache"))
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, timeout=300, cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
