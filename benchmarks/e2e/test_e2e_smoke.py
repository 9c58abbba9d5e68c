"""Smoke test of the repo benchmark (outside tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Runs ``run.py --smoke`` once untraced over all six workloads and once traced
over the two cheap ones, and pins the declaration (spec.py), the manifest
(BENCHMARK.json) and what run.py prints to each other.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TRACED = ("compile_sweep", "frontdoor")


def _run(*flags):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"] + list(flags),
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.splitlines()


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    lines = _run("--out", str(out))
    with open(out) as handle:
        return lines, json.load(handle)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    path = tmp_path_factory.mktemp("e2e") / "trace.json"
    flags = ["--trace", "--trace-out", str(path)]
    for name in TRACED:
        flags += ["--workload", name]
    lines = _run(*flags)
    with open(path) as handle:
        return lines, json.load(handle)


def test_names_and_declarations():
    names = list(spec.WORKLOADS) + [m.name for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in spec.END_TO_END:
        assert metric.unit and metric.better in ("lower", "higher")
        assert 0 < metric.bound <= 0.25
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower"
               for m in spec.END_TO_END)
    moved = {m.name for m in spec.END_TO_END} | {"none"}
    for layer in spec.PER_LAYER:
        assert layer.unit and layer.better in ("lower", "higher")
        assert layer.moves in moved, layer.name
        assert layer.on and set(layer.on) <= set(spec.WORKLOADS), layer.name
    assert len(spec.PER_LAYER) <= 128


def test_manifest_is_the_declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == spec.manifest()
    for workload in spec.manifest()["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_untraced_prints_every_end_to_end_metric(untraced):
    lines, record = untraced
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    declared = {m.name: m.unit for m in spec.END_TO_END}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    sweep = record["runs"][0]
    assert set(sweep) == set(spec.WORKLOADS)
    for name, result in sweep.items():
        assert result["failed"] == 0, (name, result["failures"])
        assert set(result["end_to_end"]) == set(declared)
        assert all(value > 0 for value in result["end_to_end"].values()), name
        for metric in declared:
            assert any(line.startswith(metric + " ") for line in lines), metric
    stamp = record["stamp"]
    assert {"git", "seed", "nproc", "python"} <= set(stamp)


def test_traced_prints_every_layer_metric_and_spans_nest(traced):
    lines, traces = traced
    last = json.loads(lines[-1])
    assert last["correct"]
    assert list(last["metrics"]) == [m.name for m in spec.PER_LAYER]
    printed = {line.split()[0] for line in lines if line and not line.startswith(("=", "{", " "))}
    for layer in spec.PER_LAYER:
        if set(layer.on) & set(TRACED):
            assert layer.name in printed, layer.name
    assert set(traces) == set(TRACED)
    for name, trace in traces.items():
        assert trace["spans"], name
        assert spans.nesting_errors(trace["spans"]) == []
        assert all(own >= -1e-6 for own in spans.self_times(trace["spans"]).values())
        shares = spans.layer_shares([s for s in trace["spans"] if s["op"] is not None])
        assert abs(sum(shares.values()) - 1.0) < 1e-6
    compile_spans = [s for s in traces["compile_sweep"]["spans"] if s["op"] is not None]
    assert spans.layer_shares(compile_spans)["compiler"] > 0.6
