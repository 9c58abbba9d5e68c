"""Simulator perf-regression harness (``repro bench perf``).

Times the *simulator itself* — not the simulated programs — by running the
shipped kernels (the five paper kernels plus the GARDENIA suite) under the
selected execution engines (``--engine``): the
reference interpreter (the bit-exactness oracle and speedup denominator),
the closure-compiled fast path (:mod:`repro.pipette.fastpath`), and the
batch-advance whole-stage compiler (:mod:`repro.pipette.batchpath`). Each
run produces a versioned perf record (per-engine wall times, simulated
cycles per second, per-phase breakdown) and the set rolls up to one
aggregate speedup per engine, ``sum(reference walls) / sum(engine walls)``.

Records are compared against a committed baseline (``BENCH_pipette.json``
at the repo root):

* **cycles must match the baseline exactly** — a mismatch means the
  simulator's behaviour changed (or went nondeterministic), which is an
  error, never a warning;
* **wall time is hardware-dependent**, so regressions beyond the threshold
  only warn by default (CI boxes are noisy neighbours).

Methodology notes, so the numbers mean the same thing everywhere: inputs
are built from fixed seeds; every run gets a fresh copy of the input
arrays; the GC is collected and disabled around each timed window; each
engine runs ``repeats`` times and the minimum wall time is kept (the
minimum estimates the noise-free cost; means smear scheduler jitter into
the record). Within one invocation every repeat must report identical
cycles — any spread is a determinism bug and fails the run.
"""

import gc
import json
import os
import subprocess
import time

from ..cache import cached_compile
from ..core.compiler import CompileOptions
from ..pipette.config import ENGINES, resolve_engine
from .harness import adapter_for, log_engine_fallbacks

#: Schema identity stamped on every perf record / baseline file.
PERF_SCHEMA = "repro.bench/perf-record"
BASELINE_SCHEMA = "repro.bench/perf-baseline"
PERF_VERSION = 2

#: History entries kept in a baseline file (oldest dropped beyond this).
HISTORY_LIMIT = 50

#: What an engine selection may name: one engine, or every engine.
ENGINE_CHOICES = ENGINES + ("all",)

#: QUICK-scale inputs: small enough that the whole suite (both engines,
#: several repeats) stays in CI-smoke territory, large enough that each
#: kernel simulates for seconds — at tiny sizes the fixed setup cost
#: (machine build, closure compilation) dilutes the engine ratio.
QUICK_INPUTS = {
    "bfs": ("power_law", {"n": 6000, "deg": 8, "seed": 7}),
    "cc": ("power_law", {"n": 4000, "deg": 8, "seed": 7}),
    "prd": ("power_law", {"n": 2000, "deg": 4, "seed": 7}),
    "radii": ("power_law", {"n": 4000, "deg": 8, "seed": 7}),
    "spmm": ("random_matrix", {"n": 128, "nnz_per_row": 6, "seed": 7}),
    # GARDENIA suite.  tc/bc make_env canonicalizes (symmetrizes) the
    # graph internally; sssp takes deterministic integer weights.
    "sssp": ("power_law_weighted", {"n": 2500, "deg": 6, "seed": 7, "wseed": 1}),
    "pr": ("power_law", {"n": 1000, "deg": 6, "seed": 7}),
    "tc": ("power_law", {"n": 1200, "deg": 5, "seed": 7}),
    "bc": ("power_law", {"n": 2000, "deg": 6, "seed": 7}),
    "spmv": ("random_matrix", {"n": 4000, "nnz_per_row": 8, "seed": 7}),
}

#: FULL-scale inputs for local, patient measurement runs.
FULL_INPUTS = {
    "bfs": ("power_law", {"n": 20000, "deg": 8, "seed": 7}),
    "cc": ("power_law", {"n": 12000, "deg": 8, "seed": 7}),
    "prd": ("power_law", {"n": 6000, "deg": 4, "seed": 7}),
    "radii": ("power_law", {"n": 12000, "deg": 8, "seed": 7}),
    "spmm": ("random_matrix", {"n": 256, "nnz_per_row": 6, "seed": 7}),
    "sssp": ("power_law_weighted", {"n": 8000, "deg": 6, "seed": 7, "wseed": 1}),
    "pr": ("power_law", {"n": 5000, "deg": 6, "seed": 7}),
    "tc": ("power_law", {"n": 4000, "deg": 5, "seed": 7}),
    "bc": ("power_law", {"n": 6000, "deg": 6, "seed": 7}),
    "spmv": ("random_matrix", {"n": 8000, "nnz_per_row": 8, "seed": 7}),
}

SCALES = {"quick": QUICK_INPUTS, "full": FULL_INPUTS}


class PerfError(Exception):
    """A conformance/determinism failure while measuring (never a slowdown)."""


def build_input(spec):
    """Materialize one ``(kind, params)`` input spec deterministically."""
    kind, params = spec
    if kind == "power_law":
        from ..workloads import graphs

        return graphs.power_law(params["n"], params["deg"], seed=params["seed"])
    if kind == "power_law_weighted":
        from ..workloads import graphs

        return graphs.with_weights(
            graphs.power_law(params["n"], params["deg"], seed=params["seed"]),
            seed=params["wseed"],
        )
    if kind == "random_matrix":
        from ..workloads import matrices

        return matrices.random_matrix(
            params["n"], params["nnz_per_row"], seed=params["seed"]
        )
    raise PerfError("unknown input kind %r" % (kind,))


def input_label(spec):
    kind, params = spec
    inner = ",".join("%s=%s" % (k, params[k]) for k in sorted(params))
    return "%s(%s)" % (kind, inner)


def normalize_engines(spec=None):
    """Canonicalize an engine selection into an ordered tuple.

    Accepts ``None`` (the engine a run that selects nothing gets, per
    :func:`~repro.pipette.config.resolve_engine` — so the harness times
    what users run), the string ``"all"``, a single engine name, or an
    iterable of names. The reference interpreter is always included — it
    is the bit-exactness oracle and the denominator of every speedup — and
    the result follows the canonical
    :data:`~repro.pipette.config.ENGINES` order.
    """
    if spec is None:
        names = [resolve_engine()]
    elif isinstance(spec, str):
        names = list(ENGINES) if spec == "all" else [spec]
    else:
        names = list(spec)
    for name in names:
        if name not in ENGINES:
            raise PerfError(
                "unknown engine %r (choose from %s or 'all')"
                % (name, ", ".join(ENGINES))
            )
    ordered = [e for e in ENGINES if e in names or e == "reference"]
    return tuple(ordered)


def _timed_run(pipeline, arrays, scalars, engine):
    """One timed simulation: fresh input copy, GC quiesced, wall + result."""
    from ..runtime.executor import run_pipeline

    fresh = {name: list(values) for name, values in arrays.items()}
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run_pipeline(pipeline, fresh, dict(scalars), copy=False, engine=engine)
        wall = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    return result, wall


def measure_bench(bench, scale="quick", repeats=2, engines=None):
    """Measure one kernel under ``engines``; returns a perf record dict.

    Every engine's :meth:`~repro.pipette.stats.SimStats.summary` must match
    the reference interpreter bit-for-bit and every repeat of one engine
    must report identical cycles; either failure raises :class:`PerfError`.

    Per-engine numbers (wall, speedup vs reference, Mcycles/s) live only
    in the record's ``engines`` map; ``phases`` holds the engine-independent
    input-build and compile walls.
    """
    engines = normalize_engines(engines)
    spec = SCALES[scale][bench]
    phase_start = time.perf_counter()
    data = build_input(spec)
    input_s = time.perf_counter() - phase_start

    adapter = adapter_for(bench)
    arrays, scalars = adapter.env(data)
    phase_start = time.perf_counter()
    pipeline = cached_compile(adapter.function(), CompileOptions())
    compile_s = time.perf_counter() - phase_start

    walls = {name: [] for name in engines}
    results = {name: None for name in engines}
    for _ in range(max(1, repeats)):
        # Alternate engines within each repeat so slow drift (thermal,
        # neighbours) hits every side of the ratios evenly.
        for name in engines:
            result, wall = _timed_run(pipeline, arrays, scalars, name)
            walls[name].append(wall)
            previous = results[name]
            if previous is not None and previous.cycles != result.cycles:
                raise PerfError(
                    "%s: %s engine is nondeterministic (cycles %r then %r)"
                    % (bench, name, previous.cycles, result.cycles)
                )
            results[name] = result

    oracle = results["reference"]
    for name in engines:
        result = results[name]
        log_engine_fallbacks("perf %s (%s)" % (bench, name), result.stage_fallbacks)
        if result.stats.summary() != oracle.stats.summary() or result.cycles != oracle.cycles:
            raise PerfError(
                "%s: %s engine diverged from the reference interpreter "
                "(tests/pipette/test_fastpath_conformance.py runs the same "
                "engine matrix per workload, to localize)" % (bench, name)
            )

    # Rounded before deriving ratios, so the record is internally
    # consistent: recomputing speedup from the stored walls reproduces the
    # stored speedup.
    cycles = oracle.cycles
    reference_wall = round(min(walls["reference"]), 4)
    per_engine = {}
    for name in engines:
        wall = round(min(walls[name]), 4)
        per_engine[name] = {
            "wall_s": wall,
            "speedup": round(reference_wall / wall, 3) if wall else 0.0,
            "sim_mcycles_per_s": round(cycles / wall / 1e6, 3) if wall else 0.0,
        }
    return {
        "schema": PERF_SCHEMA,
        "version": PERF_VERSION,
        "bench": bench,
        "scale": scale,
        "input": input_label(spec),
        "repeats": max(1, repeats),
        "cycles": cycles,
        "engines": per_engine,
        "phases": {
            "input_s": round(input_s, 4),
            "compile_s": round(compile_s, 4),
        },
    }


def record_engines(records):
    """Engine names measured in *every* record, in canonical order."""
    common = None
    for r in records:
        names = set(r["engines"])
        common = names if common is None else common & names
    return [e for e in ENGINES if e in (common or ())]


def aggregate(records):
    """Roll records up to the headline ratios, keyed by engine: each
    engine's total wall, the reference's total wall, and their ratio."""
    reference_wall = sum(r["engines"]["reference"]["wall_s"] for r in records)
    agg = {}
    for name in record_engines(records):
        wall = sum(r["engines"][name]["wall_s"] for r in records)
        agg[name] = {
            "wall_s": round(wall, 4),
            "reference_wall_s": round(reference_wall, 4),
            "speedup": round(reference_wall / wall, 3) if wall else 0.0,
        }
    return agg


def run_perf(benches=None, scale="quick", repeats=2, jobs=1, engines=None):
    """Measure ``benches`` (default: all ten); returns the record list.

    ``jobs > 1`` fans kernels out over the :mod:`repro.bench.parallel`
    worker pool. Cycles are unaffected (that is what the determinism tests
    pin down); wall times measured under contention are only comparable to
    other contended runs, so baselines should be recorded with ``jobs=1``.
    """
    engines = normalize_engines(engines)
    if benches is None:
        benches = sorted(SCALES[scale])
    if jobs > 1:
        from .parallel import Job, run_jobs

        job_list = [
            Job(("perf", scale, bench), measure_bench, bench, scale, repeats, engines)
            for bench in benches
        ]
        return [res.value for res in run_jobs(job_list, workers=jobs)]
    return [measure_bench(bench, scale, repeats, engines) for bench in benches]


def baseline_payload(records, scale):
    return {
        "schema": BASELINE_SCHEMA,
        "version": PERF_VERSION,
        "scale": scale,
        "records": records,
        "aggregate": aggregate(records),
    }


def _git_token(argv, cwd=None):
    """Run one git query; returns its stdout iff it looks like a clean
    single-token identity (no whitespace inside, no ``fatal:``/``error:``
    text that some git builds emit on stdout), else None."""
    try:
        out = subprocess.run(
            argv, capture_output=True, text=True, timeout=10, cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    text = out.stdout.strip()
    if not text or len(text) > 128 or len(text.split()) != 1:
        return None
    if text.startswith("fatal") or text.startswith("error"):
        return None
    return text


def git_describe(cwd=None):
    """The working tree's git identity, or ``"unknown"``.

    Keys history entries: two updates from the same commit replace each
    other instead of piling up. ``git describe`` fails in more environments
    than it succeeds — shallow CI clones without tags, exported tarballs,
    detached worktrees — so its output is validated as a single clean token
    and the query falls back to the bare short hash before giving up;
    history keys must never embed a multi-line git error message.
    """
    token = _git_token(
        ["git", "describe", "--always", "--dirty", "--tags"], cwd=cwd
    )
    if token is None:
        token = _git_token(["git", "rev-parse", "--short", "HEAD"], cwd=cwd)
    return token if token is not None else "unknown"


def history_entry(records, scale, engine, git=None):
    """One compact trajectory point for ``engine`` in the baseline history."""
    benches = {}
    for r in records:
        per = r["engines"][engine]
        benches[r["bench"]] = {
            "cycles": r["cycles"],
            "wall_s": per["wall_s"],
            "reference_wall_s": r["engines"]["reference"]["wall_s"],
            "speedup": per["speedup"],
            "sim_mcycles_per_s": per["sim_mcycles_per_s"],
        }
    return {
        "git": git_describe() if git is None else git,
        "engine": engine,
        "scale": scale,
        "recorded": time.strftime("%Y-%m-%d", time.gmtime()),
        "aggregate": aggregate(records)[engine],
        "benches": benches,
    }


def append_history(history, entry, limit=HISTORY_LIMIT):
    """``history`` plus ``entry``, replacing any same-key prior point.

    The key is ``(engine, git, scale)`` — re-recording from the same
    commit updates that point in place (walls drift with the machine),
    while a new commit appends a new trajectory point.
    """
    key = (entry["engine"], entry["git"], entry["scale"])
    kept = [e for e in history if (e["engine"], e["git"], e["scale"]) != key]
    kept.append(entry)
    return kept[-limit:]


def write_baseline(records, scale, path, git=None):
    """Write the regression baseline, growing its measurement history.

    The top-level ``records``/``aggregate`` are always the *latest*
    measurement (the regression baseline the checker reads); ``history``
    accumulates one compact entry per ``(engine, git, scale)`` so the
    report's trajectory sparklines have real data.
    """
    history = []
    if os.path.exists(path):
        try:
            history = list(read_baseline(path).get("history") or [])
        except (PerfError, ValueError, OSError):
            pass  # unreadable or other-version file: start a fresh history
    payload = baseline_payload(records, scale)
    git_key = git_describe() if git is None else git
    for engine in record_engines(records):
        if engine == "reference":
            continue
        # One trajectory point per measured engine: the baseline grows a
        # multi-engine history the report can chart side by side.
        history = append_history(
            history, history_entry(records, scale, engine, git=git_key)
        )
    payload["history"] = history
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def read_baseline(path):
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("schema") != BASELINE_SCHEMA:
        raise PerfError("%s: not a %s file" % (path, BASELINE_SCHEMA))
    if payload.get("version") != PERF_VERSION:
        raise PerfError(
            "%s: %s version %r, this tool reads version %d; re-record it "
            "with `repro bench perf --update-baseline`"
            % (path, BASELINE_SCHEMA, payload.get("version"), PERF_VERSION)
        )
    return payload


def check_against_baseline(records, baseline, threshold):
    """Compare fresh records to a baseline; returns ``(errors, warnings)``.

    Errors are behaviour changes (cycle counts differ from the committed
    baseline — the simulator no longer computes the same timing, or has
    gone nondeterministic). Warnings are wall-time movements beyond
    ``threshold``, which may just be the machine.
    """
    errors, warnings = [], []
    by_bench = {r["bench"]: r for r in baseline.get("records", [])}
    for record in records:
        base = by_bench.get(record["bench"])
        if base is None:
            warnings.append("%s: no baseline record" % record["bench"])
            continue
        if base.get("scale") != record["scale"] or base.get("input") != record["input"]:
            warnings.append(
                "%s: baseline measured %s at scale %s, current is %s at %s; "
                "skipping comparison"
                % (
                    record["bench"],
                    base.get("input"),
                    base.get("scale"),
                    record["input"],
                    record["scale"],
                )
            )
            continue
        if base["cycles"] != record["cycles"]:
            errors.append(
                "%s: simulated cycles changed from baseline (%r -> %r); "
                "timing behaviour moved — if intentional, re-record with "
                "--update-baseline"
                % (record["bench"], base["cycles"], record["cycles"])
            )
        for name, measured in record["engines"].items():
            pinned = base["engines"].get(name)
            if name == "reference" or pinned is None:
                continue
            label = "%s (%s)" % (record["bench"], name)
            if measured["wall_s"] > pinned["wall_s"] * (1.0 + threshold):
                warnings.append(
                    "%s: engine wall %.3fs exceeds baseline %.3fs by more "
                    "than %d%%"
                    % (label, measured["wall_s"], pinned["wall_s"], round(threshold * 100))
                )
            if measured["speedup"] < pinned["speedup"] * (1.0 - threshold):
                warnings.append(
                    "%s: speedup %.2fx fell more than %d%% below baseline %.2fx"
                    % (label, measured["speedup"], round(threshold * 100), pinned["speedup"])
                )
    return errors, warnings


#: Column labels for the perf table, per engine.
_TABLE_LABELS = {"reference": "ref", "fastpath": "fast", "batch": "batch"}


def render_table(records, agg):
    """Human-readable summary table (stdout payload of ``bench perf``).

    Columns adapt to the engine set: one wall column per engine plus one
    speedup-vs-reference column per non-reference engine; the Mcyc/s column
    is the last (most advanced) engine's.
    """
    engines = record_engines(records)
    ratio_engines = [e for e in engines if e != "reference"]
    lines = []
    header = "%-7s %-6s %12s" % ("bench", "scale", "cycles")
    header += "".join(" %9s" % ("%s(s)" % _TABLE_LABELS[e]) for e in engines)
    header += "".join(" %8s" % ("%s(x)" % _TABLE_LABELS[e]) for e in ratio_engines)
    header += " %10s" % "Mcyc/s"
    lines.append(header)
    lines.append("-" * len(header))
    for r in records:
        per = r["engines"]
        row = "%-7s %-6s %12.0f" % (r["bench"], r["scale"], r["cycles"])
        row += "".join(" %9.3f" % per[e]["wall_s"] for e in engines)
        row += "".join(" %7.2fx" % per[e]["speedup"] for e in ratio_engines)
        row += " %10.2f" % per[engines[-1]]["sim_mcycles_per_s"]
        lines.append(row)
    lines.append("-" * len(header))
    total = "%-7s %-6s %12s" % ("total", "", "")
    total += "".join(" %9.3f" % agg[e]["wall_s"] for e in engines)
    total += "".join(" %7.2fx" % agg[e]["speedup"] for e in ratio_engines)
    lines.append(total)
    return "\n".join(lines)


def obs_records(records):
    """Perf results as :mod:`repro.obs.record` RunRecords (one per engine)."""
    from ..obs.record import run_record

    out = []
    for r in records:
        for name in record_engines([r]):
            per = r["engines"][name]
            out.append(
                run_record(
                    r["bench"],
                    "engine-%s" % name,
                    r["input"],
                    r["cycles"],
                    ok=True,
                    extra={
                        "wall_s": per["wall_s"],
                        "perf_scale": r["scale"],
                        "perf_speedup": per["speedup"],
                    },
                )
            )
    return out


def run_cli(args):
    """``repro bench perf`` driver; returns ``(status, records)``.

    ``args`` is a :class:`repro.api.BenchPerfRequest`, whose fields are the
    perf options.
    """
    from ..obs import log

    scale = args.scale
    benches = list(args.benches) or None
    engines = args.engine or None
    started = time.perf_counter()
    try:
        records = run_perf(
            benches=benches,
            scale=scale,
            repeats=args.repeats,
            jobs=args.jobs or 1,
            engines=engines,
        )
    except PerfError as exc:
        print("perf: ERROR: %s" % exc)
        return 1, []
    agg = aggregate(records)

    if args.json:
        print(json.dumps(baseline_payload(records, scale), indent=2, sort_keys=True))
    else:
        print(render_table(records, agg))

    if args.metrics_out:
        from ..obs.record import write_jsonl

        out = obs_records(records)
        write_jsonl(out, args.metrics_out)
        log("perf: %d RunRecords -> %s", len(out), args.metrics_out)

    status = 0
    if args.update_baseline:
        payload = write_baseline(records, scale, path=args.baseline)
        # Advisory chatter goes through the obs.log funnel (stderr,
        # silenced by --quiet/REPRO_QUIET) — the table/JSON above is the
        # stdout payload; errors below stay on stdout because they *are*
        # the result of a failed check.
        log(
            "perf: baseline updated -> %s (%d history points)",
            args.baseline,
            len(payload.get("history", [])),
        )
    elif args.check_baseline:
        if not os.path.exists(args.baseline):
            print("perf: ERROR: baseline %s not found" % args.baseline)
            return 1, records
        try:
            baseline = read_baseline(args.baseline)
        except (PerfError, ValueError) as exc:
            print("perf: ERROR: %s" % exc)
            return 1, records
        errors, warnings = check_against_baseline(
            records, baseline, threshold=args.threshold
        )
        strict = args.strict
        for line in warnings:
            # Warnings are telemetry unless --strict promotes them to the
            # failure payload.
            if strict:
                print("perf: WARNING: %s" % line)
            else:
                log("perf: WARNING: %s", line)
        for line in errors:
            print("perf: ERROR: %s" % line)
        if errors:
            status = 1
        elif strict and warnings:
            status = 1
        else:
            log(
                "perf: baseline check ok (%d records; aggregate vs baseline: %s)",
                len(records),
                ", ".join(
                    "%s %.2fx vs %.2fx" % (name, agg[name]["speedup"], pinned["speedup"])
                    for name, pinned in baseline["aggregate"].items()
                    if name in agg and name != "reference"
                ),
            )
    log("perf: %.1fs total", time.perf_counter() - started)
    return status, records
