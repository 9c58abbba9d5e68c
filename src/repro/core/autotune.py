"""Profile-guided pipeline search (paper Sec. V, "Autotuning decoupling
points", and Fig. 8's shaded flow).

The static cost model is necessarily approximate: cache behaviour and loop
lengths are input-dependent. The profile-guided mode takes more candidate
decoupling points than stages, builds *every* pipeline from combinations of
the top-ranked points, profiles each on small training inputs, and keeps
the best. This module is generic over how a pipeline is scored: the caller
supplies ``evaluate(pipeline) -> gmean speedup`` (the bench harness closes
over the training inputs, mirroring the paper's internet/USA-road-d-NY and
email-Enron/wiki-Vote training sets).
"""

import itertools
import math

from ..analysis.costmodel import rank_decouple_points
from ..errors import CompileError, PhloemError
from .compiler import ALL_PASSES, CompileOptions, compile_function
from .phases import prepare_phases


class SearchPoint:
    """One scored candidate: point indices, unit count, training speedup.

    Everything Fig. 13 plots. :func:`search_pipelines` attaches the
    compiled ``pipeline``; the harness ships and caches the summary without
    it and attaches it only to the winner (recompiled through the pipeline
    cache when the scores came from a warm hit).
    """

    __slots__ = ("indices", "num_units", "speedup", "pipeline")

    def __init__(self, indices, num_units, speedup, pipeline=None):
        self.indices = tuple(indices)
        self.num_units = num_units
        self.speedup = speedup
        self.pipeline = pipeline

    def __repr__(self):
        return "Candidate(points=%s, units=%d, speedup=%.2f)" % (
            list(self.indices),
            self.num_units,
            self.speedup,
        )


def candidate_count(function, top_k=7):
    """How many ranked points the search can draw from."""
    work = function.clone()
    prepare_phases(work)
    return min(top_k, len(rank_decouple_points(work)))


def _prune_keep_count(n):
    """How many of ``n`` compiled candidates survive static pruning: the
    top quarter, at least 2 (and never more than there are)."""
    return min(n, max(2, -(-n // 4)))


def search_pipelines(
    function,
    evaluate,
    max_stages=4,
    top_k=7,
    passes=ALL_PASSES,
    limit=80,
    recorder=None,
    prune_static=False,
):
    """Enumerate, compile, and profile candidate pipelines.

    Returns ``(best, results)``: ``results`` holds a :class:`SearchPoint`
    (pipeline attached) per profiled candidate — the distribution Fig. 13
    plots — and ``best`` is the highest-speedup one (None if nothing
    compiled). Combinations the compiler rejects (alias races, backward
    control) are skipped, exactly as untransformable candidates should be.

    ``prune_static`` enables the static pre-filter: every candidate still
    compiles, but only the top quarter (at least 2) by the analytic
    performance model (:func:`repro.analysis.perfmodel.static_score`) is
    simulated; the rest are dropped before ``evaluate`` ever runs. Pruning
    only skips simulations — the compile set, the scoring of survivors,
    and the final ``max`` by measured speedup are unchanged.

    ``recorder`` (a :class:`repro.obs.SearchRecorder`) logs every candidate
    — scored, compile-rejected, evaluation-failed, or statically pruned —
    and the selection verdict; it observes the search without altering it.
    """
    k = candidate_count(function, top_k)
    combos = []
    for size in range(1, max_stages):
        combos.extend(itertools.combinations(range(k), size))
    if limit is not None:
        combos = combos[:limit]

    results = []
    compiled = []
    for indices in combos:
        try:
            pipeline = compile_function(
                function,
                options=CompileOptions(
                    num_stages=len(indices) + 1, passes=passes, point_indices=indices
                ),
            )
        except PhloemError as exc:
            if recorder is not None:
                recorder.failed(indices, "compile", exc)
            continue
        compiled.append((indices, pipeline))

    survivors = {indices: None for indices, _ in compiled}
    if prune_static and compiled:
        from ..analysis.perfmodel import analyze_pipeline

        reports = {indices: analyze_pipeline(pipeline) for indices, pipeline in compiled}
        scores = {indices: rep.static_score() for indices, rep in reports.items()}

        def rank_key(item):
            indices, pipeline = item
            rep = reports[indices]
            # Primary: predicted throughput. Ties (identical bottleneck
            # work) break toward less total work, then fewer units — both
            # proxies for decoupling overhead the bottleneck model cannot
            # see — and finally deterministic combo order.
            return (
                -rep.static_score(),
                sum(s.work for s in rep.stages),
                pipeline.num_units,
                indices,
            )

        keep = _prune_keep_count(len(compiled))
        ranked = sorted(compiled, key=rank_key)
        survivors = {indices: scores[indices] for indices, _ in ranked[:keep]}
        cutoff = min(survivors.values())
        for indices, pipeline in compiled:
            if indices in survivors:
                continue
            if recorder is not None:
                recorder.pruned(
                    indices,
                    pipeline.num_units,
                    scores[indices],
                    "static score %.3g below cutoff %.3g (top %d kept)"
                    % (scores[indices], cutoff, keep),
                )

    for indices, pipeline in compiled:
        if indices not in survivors:
            continue
        try:
            speedup = evaluate(pipeline)
        except PhloemError as exc:
            if recorder is not None:
                recorder.failed(indices, "evaluate", exc)
            continue
        results.append(SearchPoint(indices, pipeline.num_units, speedup, pipeline))
        if recorder is not None:
            recorder.scored(indices, pipeline.num_units, speedup)

    best = max(results, key=lambda r: r.speedup) if results else None
    if recorder is not None:
        recorder.decide(None if best is None else best.indices)
    return best, results


def gmean(values):
    """Geometric mean (the paper's aggregate everywhere)."""
    values = list(values)
    if not values:
        raise CompileError("gmean of no values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speedup_distribution(results):
    """Group results by unit count (stages + RAs): Fig. 13's x-axis."""
    by_units = {}
    for result in results:
        by_units.setdefault(result.num_units, []).append(result.speedup)
    return {units: sorted(speeds) for units, speeds in sorted(by_units.items())}
