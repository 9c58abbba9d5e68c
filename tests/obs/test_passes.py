"""Compiler pass instrumentation."""

from repro.bench.harness import adapter_for
from repro.core.compiler import CompileOptions, compile_function
from repro.ir.serialize import fingerprint
from repro.obs import PassProfiler


def _function():
    return adapter_for("bfs").function()


def test_profiler_records_every_pass_with_deltas():
    profiler = PassProfiler()
    compile_function(_function(), options=CompileOptions(num_stages=4), profiler=profiler)
    names = [r.name for r in profiler.records]
    # decouple always runs and always finalizes; optional passes in order.
    assert names[-1] == "finalize"
    assert "decouple" in names
    for name in ("recompute", "cv", "dce", "handlers", "ra"):
        assert name in names
    decouple = next(r for r in profiler.records if r.name == "decouple")
    assert decouple.before["stages"] == 1
    assert decouple.after["stages"] > 1
    assert decouple.after["queues"] > 0
    ra = next(r for r in profiler.records if r.name == "ra")
    assert ra.delta("ras") > 0
    assert all(r.wall_s >= 0.0 for r in profiler.records)


def test_phase_transform_recorded_for_phased_kernels():
    profiler = PassProfiler()
    compile_function(_function(), options=CompileOptions(num_stages=4), profiler=profiler)
    # BFS has a convergence loop, so the phases prepass fires and records.
    assert any(r.name == "phases" for r in profiler.records)


def test_pass_subset_profiles_only_requested_passes():
    profiler = PassProfiler()
    compile_function(
        _function(),
        options=CompileOptions(num_stages=4, passes=("recompute",)),
        profiler=profiler,
    )
    names = {r.name for r in profiler.records}
    assert "recompute" in names
    assert "ra" not in names and "cv" not in names


def test_profiler_does_not_change_compilation():
    plain = compile_function(_function(), options=CompileOptions(num_stages=4))
    profiled = compile_function(
        _function(),
        options=CompileOptions(num_stages=4),
        profiler=PassProfiler(),
    )
    assert fingerprint(plain) == fingerprint(profiled)


def test_snapshots_capture_ir_text():
    profiler = PassProfiler(snapshots=True)
    compile_function(_function(), options=CompileOptions(num_stages=4), profiler=profiler)
    decouple = next(r for r in profiler.records if r.name == "decouple")
    assert "pipeline" in decouple.ir_after
    assert decouple.ir_before != decouple.ir_after
    d = decouple.as_dict()
    assert "ir_before" in d and "ir_after" in d


def test_as_dicts_and_render():
    profiler = PassProfiler()
    compile_function(_function(), options=CompileOptions(num_stages=3), profiler=profiler)
    dicts = profiler.as_dicts()
    assert all(set(d) >= {"pass", "wall_s", "before", "after"} for d in dicts)
    text = profiler.render()
    assert "decouple" in text and "total" in text
    assert profiler.total_wall_s() >= 0.0
