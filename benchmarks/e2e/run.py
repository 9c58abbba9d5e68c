"""The repo benchmark: ``python3 benchmarks/e2e/run.py``.

    run.py [--workload NAME ...] [--seed N] [--seconds S] [--trace [0|1]]
           [--repeat N] [--out FILE] [--smoke]
    run.py --compare A.json B.json

Each workload runs in its own fresh, hermetic subprocess (``REPRO_*``
scrubbed, a new cache directory, ``PYTHONHASHSEED`` pinned) that drives the
repo only through its public functions, checks every output, and reports
its metrics. Every metric is printed by name with its unit; the last line
of stdout is one JSON object ``{correct, attempted, failed, metrics}`` for
the last workload run. README.md has the glossary; spec.py the declaration.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import common
import spans
import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(ROOT, "src")
WORK = ".bench_work"

#: Fresh processes whose set-up time is sampled per run (median reported).
SETUP_SAMPLES = 5
#: A traced run spends half its budget untraced and half traced.
TRACED_MIN_PASSES = 2


# -- child: one workload in this process ----------------------------------------


def make_workload(name):
    if name in spec.SIM:
        from wl_sim import SimWorkload

        return SimWorkload(name)
    if name == "autotune":
        from wl_autotune import Autotune

        return Autotune()
    if name == "compile_sweep":
        from wl_compile import CompileSweep

        return CompileSweep()
    from wl_frontdoor import Frontdoor

    return Frontdoor()


def child_main(args):
    ctx = common.Context(args.seed, args.work, args.cpus)
    workload = make_workload(args.workload[0])
    ctx.rec.enabled = bool(args.trace)
    result = {"workload": workload.name, "seed": args.seed}
    try:
        workload.setup(ctx)
        ctx.rec.enabled = False
        result["setup_s"] = time.perf_counter() - args.t0
        if not args.setup_only:
            measure(ctx, workload, args, result)
    finally:
        workload.teardown(ctx)
    usage = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    result["peak_rss_mb"] = usage / 1024.0
    result.update(attempted=ctx.attempted, failures=ctx.failures, info=ctx.info)
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


def measure(ctx, workload, args, result):
    if not args.trace:
        floor = 1 if args.smoke else workload.min_passes
        phase = ctx.measure(workload.one_pass, args.seconds, floor)
        result.update(common.summarize(phase.samples))
    else:
        floor = 1 if args.smoke else TRACED_MIN_PASSES
        phase = ctx.measure(workload.one_pass, args.seconds / 2.0, floor)
        traced = ctx.measure(workload.one_pass, args.seconds / 2.0, floor, traced=True)
        ctx.layers["trace.overhead_ratio"] = (
            common.summarize(traced.samples)["wall_s"] / common.summarize(phase.samples)["wall_s"]
        )
        ctx.layers["host.slowdown"] = phase.slowdown
        workload.extras(ctx, phase)
        timed = [
            s for s in ctx.rec.spans
            if s["op"] is not None and s["op"].startswith(workload.share_ops_prefix)
        ]
        for group, share in spans.layer_shares(timed).items():
            ctx.layers["share." + group] = share
        ctx.layers["trace.spans"] = len(ctx.rec.spans)
        for error in spans.nesting_errors(ctx.rec.spans):
            ctx.fail("trace", error)
        ctx.rec.write(os.path.join(args.work, "trace.json"), {"workload": workload.name})
        result["per_layer"] = ctx.layers
    result["slowdown"] = phase.slowdown
    result["ops"] = len(phase.samples)
    result["passes"] = phase.passes
    result["samples"] = sum(len(walls) for walls in phase.samples.values())


# -- parent: hermetic children, printing, the contract line ---------------------


def child_env(work=None):
    """The hermetic environment of every process the benchmark starts."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SOURCE
    # Bytecode lives in the checkout's work directory, so a cold CLI start
    # costs what it does for an installed package whatever the caller's
    # environment says, and nothing is written next to the sources.
    env["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, WORK, "pycache")
    if work is not None:
        env["REPRO_CACHE_DIR"] = os.path.join(work, "cache")
    return env


def build():
    """The benchmark's only build step: byte-compile ``src`` (a no-op when fresh)."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", SOURCE],
        env=child_env(), cwd=ROOT, check=True, stdout=sys.stderr,
    )


def spawn(name, args, index, setup_only):
    """Run one child to completion; returns its result dict (None on a crash)."""
    work = os.path.join(WORK, "%s-%d-%d" % (name, os.getpid(), index))
    os.makedirs(os.path.join(ROOT, work))
    result_path = os.path.join(work, "result.json")
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--child", "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", work, "--result", result_path,
        "--cpus", ",".join(map(str, args.cpus)),
    ]
    command += ["--setup-only"] if setup_only else []
    command += ["--smoke"] if args.smoke else []
    # The child inherits this CPU, so its interpreter start and imports run
    # in a fast mode too; set-up is timed from here.
    common.Host(args.cpus, patience=1.0).settle()
    command += ["--t0", repr(time.perf_counter())]
    try:
        # The child's stdout carries nothing; keep ours for the metrics.
        proc = subprocess.run(command, cwd=ROOT, env=child_env(work), stdout=sys.stderr)
        if proc.returncode != 0:
            print("FAIL %s: child exited %d" % (name, proc.returncode), file=sys.stderr)
            return None
        with open(os.path.join(ROOT, result_path)) as handle:
            result = json.load(handle)
        trace_path = os.path.join(ROOT, work, "trace.json")
        if os.path.exists(trace_path):
            with open(trace_path) as handle:
                result["trace"] = json.load(handle)
        return result
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)


def run_workload(name, args):
    """One full run of ``name``: set-up samples, then the measured child."""
    setups = []
    for index in range(0 if args.smoke else SETUP_SAMPLES - 1):
        sample = spawn(name, args, index, setup_only=True)
        if sample is not None:
            setups.append(sample["setup_s"])
    result = spawn(name, args, SETUP_SAMPLES, setup_only=False)
    if result is None:
        return {"workload": name, "seed": args.seed, "attempted": 1, "failed": 1,
                "failures": ["child crashed"], "crashed": True}
    setups.append(result.pop("setup_s"))
    result["failed"] = min(len(result["failures"]), result["attempted"])
    if args.trace:
        layers = dict.fromkeys((m.name for m in spec.PER_LAYER), 0)
        layers.update(result["per_layer"])
        result["per_layer"] = layers
    else:
        result["end_to_end"] = {
            "wall_s": result.pop("wall_s"),
            "op_p50_ms": result.pop("op_p50_ms"),
            "slowest_op_ms": result.pop("slowest_op_ms"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    return result


def stamp(args):
    try:
        git = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        git = ""
    return {
        "git": git or "unknown", "seed": args.seed, "seconds": args.seconds,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "smoke": args.smoke, "trace": args.trace,
    }


def contract_line(result, traced):
    """The one JSON object the runner's contract asks for."""
    declared = spec.PER_LAYER if traced else spec.END_TO_END
    values = result.get("per_layer" if traced else "end_to_end", {})
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in declared if m.name in values
        },
    })


def print_result(result, traced):
    name = result["workload"]
    info = result.get("info", {})
    print("== %s  seed=%s ops=%s passes=%s samples=%s engine=%s attempted=%d failed=%d" % (
        name, result["seed"], result.get("ops"), result.get("passes"), result.get("samples"),
        info.get("engine", "-"), result["attempted"], result["failed"]))
    if traced:
        defined = {m.name: m for m in spec.PER_LAYER}
        for metric, value in result.get("per_layer", {}).items():
            if name in defined[metric].on:
                print("%-40s %14.6g %s" % (metric, value, defined[metric].unit))
        if name in defined["phloem_speedup_gmean"].on:
            print("  (paper: 1.7x gmean over serial; this model is unvalidated against "
                  "hardware, so no error figure)")
    else:
        for metric in spec.END_TO_END:
            value = result.get("end_to_end", {}).get(metric.name)
            if value is not None:
                print("%-40s %14.6g %s" % (metric.name, value, metric.unit))
    print("%-40s %14.6g %s" % ("fail_ratio", result["failed"] / result["attempted"],
                               "failed/attempted"))
    if "slowdown" in result:
        print("  (median host slowdown around the samples: %.2fx the fastest spin seen)" % (
            result["slowdown"]))


def parent_main(args):
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print("run.py: %s/repro not found: nothing to benchmark" % SOURCE, file=sys.stderr)
        return 2
    names = args.workload or list(spec.WORKLOADS)
    unknown = [n for n in names if n not in spec.WORKLOADS]
    if unknown:
        print("run.py: unknown workload %s (choose from %s)" % (
            ", ".join(unknown), ", ".join(spec.WORKLOADS)), file=sys.stderr)
        return 2
    if args.smoke:
        args.seconds = 0.0
    build()
    record = {"stamp": stamp(args), "runs": []}
    traces = {}
    failed = 0
    line = None
    base_seed = args.seed
    for repeat in range(args.repeat):
        args.seed = base_seed + repeat
        sweep = {}
        for name in names:
            result = run_workload(name, args)
            trace = result.pop("trace", None)
            if trace is not None:
                traces[name] = trace
            print_result(result, bool(args.trace))
            failed += result["failed"]
            line = None if result.get("crashed") else contract_line(result, bool(args.trace))
            sweep[name] = result
        record["runs"].append(sweep)
    if traces:
        with open(args.trace_out, "w") as handle:
            json.dump(traces, handle)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    if line is None:
        return 1
    print(line)
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=None, metavar="NAME",
                        help="run only this workload (repeatable; default: all six)")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="time budget of one workload's measured section")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="traced run: per-layer metrics and trace.json")
    parser.add_argument("--trace-out", default="trace.json", metavar="FILE")
    parser.add_argument("--repeat", type=int, default=1,
                        help="whole sweeps to run, seeds N, N+1, ... (for --compare)")
    parser.add_argument("--out", default=None, metavar="FILE", help="write every run as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="one pass per workload, one set-up sample")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files and exit")
    for internal in ("--child", "--setup-only"):
        parser.add_argument(internal, action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cpus", type=lambda text: [int(c) for c in text.split(",")],
                        default=sorted(os.sched_getaffinity(0)), help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare)
    if args.child:
        return child_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
