"""Static whole-pipeline performance model (the PHL4xx advisory family).

Predicts, without simulating, where a compiled pipeline's steady-state
bottleneck sits and how its queues will behave. The model walks each
stage's IR, weights every statement by how often it executes relative to
one *source unit* of work (the trip-weight heuristic of
:mod:`repro.analysis.loops`, propagated along the queue topology so a
consumer's frequency is driven by its producers' token rates), and prices
each statement with per-kind service costs mirroring the Pipette timing
model (:mod:`repro.pipette.interp`): indirect loads pay a miss-like
latency, streaming loads are nearly free behind the prefetcher, queue ops
cost an issue slot plus transfer latency, and so on.

Solving the resulting per-stage work totals gives:

* the predicted bottleneck stage (the paper's "serial stage limits
  pipeline throughput" argument, Sec. VII) and a relative throughput
  estimate (``1 / bottleneck work``);
* per-edge queue pressure — whether an edge is expected to *full-stall*
  its producer (producer outpaces consumer) or *empty-stall* its consumer
  — plus burst-aware capacity advisories;
* the aggregate issue-bandwidth demand the co-resident stage threads put
  on one core's shared :class:`~repro.pipette.sched.IssueLedger`.

Everything here is **advisory**: the analyzer never changes compilation
outputs, cache keys, or simulated results. Findings surface as the
PHL401-PHL405 diagnostics (all NOTE/WARNING), through ``repro lint
--perf``, and as the static score the autotuner's ``prune_static`` mode
uses to drop dominated candidates before simulation.

Calibration contract (DESIGN.md section 8): the per-kind costs below were
calibrated once against measured ``SimStats`` busy times on the shipped
bench/dp/manual/taco kernels and are pinned by the conformance tests in
``tests/analysis/test_perfmodel.py``; the prediction is considered correct
when the predicted stage's measured busy time is within tolerance of the
busiest stage's.
"""

from __future__ import annotations

import re
from typing import Any, Optional

from ..diag import NOTE, WARNING, DiagnosticSet
from ..ir.program import RA_SCAN
from ..ir.stmts import walk, walk_with_depth
from .access import INDIRECT, OTHER, SEQUENTIAL, _depends_on_load, classify_loads
from .defs import DefUse
from .loops import estimated_trip_weight
from .sanitize import _first_span, _stage_label

#: Micro-ops a core issues per cycle (mirrors ``MachineConfig.issue_width``): PHL405's budget.
ISSUE_WIDTH = 6.0

#: Extra latency of ALU ops beyond one issue slot (mirrors
#: ``MachineConfig.op_latency``: mul 3, div/mod 12, default 1).
OP_COST = {"mul": 3.0, "div": 12.0, "mod": 12.0}
DEFAULT_OP_COST = 1.0

#: Per-load service cost by access kind. Streaming loads ride the
#: prefetcher; indirect loads pay an amortized miss (bounded by MSHR-level
#: memory parallelism, hence far below the raw DRAM latency); ``other``
#: (queue-fed/opaque) indices land in between.
LOAD_COST = {SEQUENTIAL: 2.0, OTHER: 6.0, INDIRECT: 12.0}

#: Extra cost per additional chained-load level feeding an address.
INDIRECTION_COST = 4.0

#: Trip-weight base: estimated iterations of a loop whose bounds are
#: unknown (shared with the decoupling cost model).
TRIP_BASE = 8.0

#: Token expansion of a SCAN reference accelerator: it consumes *two*
#: input tokens (start, end) per scan and emits an estimated TRIP_BASE
#: elements, so output rate = input rate * TRIP_BASE / 2.
SCAN_OUT_PER_IN = TRIP_BASE / 2.0

QUEUE_OP_COST = 2.0  # one issue slot + amortized transfer latency
STORE_COST = 2.0
PREFETCH_COST = 1.0
ATOMIC_COST = 20.0  # 3 slots + atomic_overhead(15) + tag access
FOR_HEADER_COST = 3.0  # per-iteration loop bookkeeping (3 uops)
LOOP_HEADER_COST = 1.0
BRANCH_COST = 1.0
SHARED_ACCESS_COST = 1.0
DEFAULT_CALL_COST = 10.0

#: Relative work margin below which two stages count as balanced.
PRESSURE_MARGIN = 0.10

#: PHL403 fires when capacity exceeds this multiple of the burst estimate.
OVERSIZE_FACTOR = 8.0

#: Validation tolerance: the predicted bottleneck must have measured busy
#: time within this fraction of the busiest stage's (ties between
#: symmetric stages — data-parallel workers — are expected).
VALIDATE_TOL = 0.15

_THREAD_RE = re.compile(r"^r(\d+)\.s(\d+)\.")


class StageEstimate:
    """Predicted steady-state profile of one stage."""

    __slots__ = ("index", "name", "drive_rate", "work", "uops", "share", "bottleneck")

    def __init__(self, index: int, name: str, drive_rate: float, work: float, uops: float) -> None:
        self.index = index
        self.name = name
        #: Executions of the stage's reference (shallowest dequeue) level
        #: per source unit of work.
        self.drive_rate = drive_rate
        #: Predicted busy cycles per source unit.
        self.work = work
        #: Predicted issue slots consumed per source unit.
        self.uops = uops
        self.share = 0.0
        self.bottleneck = False

    def as_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "name": self.name,
            "drive_rate": self.drive_rate,
            "work": self.work,
            "uops": self.uops,
            "share": self.share,
            "bottleneck": self.bottleneck,
        }

    def __repr__(self) -> str:
        return "StageEstimate(s%d %s: work %.1f, share %.0f%%%s)" % (
            self.index,
            self.name,
            self.work,
            100.0 * self.share,
            ", bottleneck" if self.bottleneck else "",
        )


class EdgeEstimate:
    """Predicted pressure on one stage-consumed queue."""

    __slots__ = (
        "qid",
        "label",
        "producer_index",
        "consumer_index",
        "token_rate",
        "pressure",
        "burst",
        "capacity",
    )

    def __init__(
        self,
        qid: int,
        label: str,
        producer_index: int,
        consumer_index: int,
        token_rate: float,
        pressure: str,
        burst: float,
        capacity: int,
    ) -> None:
        self.qid = qid
        self.label = label
        self.producer_index = producer_index
        self.consumer_index = consumer_index
        self.token_rate = token_rate
        #: "full" (producer outpaces consumer: expect full_blocks),
        #: "empty" (consumer outpaces producer: expect empty_blocks), or
        #: "balanced".
        self.pressure = pressure
        self.burst = burst
        self.capacity = capacity

    def as_dict(self) -> dict[str, Any]:
        return {
            "qid": self.qid,
            "label": self.label,
            "producer": self.producer_index,
            "consumer": self.consumer_index,
            "token_rate": self.token_rate,
            "pressure": self.pressure,
            "burst": self.burst,
            "capacity": self.capacity,
        }

    def __repr__(self) -> str:
        return "EdgeEstimate(q%d s%d->s%d: %s)" % (
            self.qid,
            self.producer_index,
            self.consumer_index,
            self.pressure,
        )


class PerfReport:
    """The model's output: per-stage estimates plus the topology solve."""

    def __init__(
        self,
        pipeline: Any,
        stages: list[StageEstimate],
        edges: list[EdgeEstimate],
    ) -> None:
        self.pipeline = pipeline
        self.pipeline_name = str(pipeline.name)
        self.stages = stages
        self.edges = edges
        total = sum(s.work for s in stages) or 1.0
        peak = max((s.work for s in stages), default=0.0)
        for s in stages:
            s.share = s.work / total
            s.bottleneck = s.index == self.bottleneck_index
        #: Cycles per source unit at steady state = the slowest stage.
        self.bottleneck_work = peak
        #: Source units retired per cycle, relative scale only.
        self.throughput = (1.0 / peak) if peak > 0 else 0.0
        #: Aggregate issue slots demanded per cycle on a shared core when
        #: every stage runs at the bottleneck's pace.
        self.issue_demand = (sum(s.uops for s in stages) / peak) if peak > 0 else 0.0

    @property
    def bottleneck_index(self) -> Optional[int]:
        if not self.stages:
            return None
        best = max(self.stages, key=lambda s: (s.work, -s.index))
        return best.index

    def stage(self, index: int) -> Optional[StageEstimate]:
        for s in self.stages:
            if s.index == index:
                return s
        return None

    def static_score(self) -> float:
        """The autotuner's pruning score: predicted throughput.

        Across candidate pipelines of the *same* function, the serial work
        is a constant, so predicted speedup over serial ranks identically
        to predicted throughput ``1 / bottleneck work`` — a candidate wins
        by shrinking its slowest stage (splitting well, offloading loads
        to RAs), and loses by concentrating work or adding queue overhead
        to the critical stage. Only the ranking is meaningful.
        """
        return self.throughput

    def as_dict(self) -> dict[str, Any]:
        return {
            "pipeline": self.pipeline_name,
            "stages": [s.as_dict() for s in self.stages],
            "edges": [e.as_dict() for e in self.edges],
            "bottleneck": self.bottleneck_index,
            "throughput": self.throughput,
            "issue_demand": self.issue_demand,
            "static_score": self.static_score(),
        }

    def render(self) -> str:
        lines = ["perf model: %s" % self.pipeline_name]
        lines.append("%-5s %-20s %10s %8s %7s" % ("stage", "name", "work", "share", ""))
        for s in self.stages:
            lines.append(
                "s%-4d %-20s %10.1f %7.0f%% %7s"
                % (s.index, s.name, s.work, 100.0 * s.share, "<-- bn" if s.bottleneck else "")
            )
        for e in self.edges:
            lines.append(
                "q%-4d s%d->s%d %-16s pressure=%s" % (e.qid, e.producer_index, e.consumer_index, e.label or "", e.pressure)
            )
        lines.append(
            "throughput %.4f /cycle (rel), issue demand %.1f/%g"
            % (self.throughput, self.issue_demand, ISSUE_WIDTH)
        )
        return "\n".join(lines)

    # -- advisories ----------------------------------------------------------

    def advisories(self, diags: Optional[DiagnosticSet] = None) -> DiagnosticSet:
        """The PHL401-PHL405 findings this prediction supports."""
        if diags is None:
            diags = DiagnosticSet()
        self._advise_bottleneck(diags)
        self._advise_queues(diags)
        self._advise_distribution(diags)
        self._advise_issue(diags)
        return diags

    def _advise_bottleneck(self, diags: DiagnosticSet) -> None:
        if len(self.stages) < 2:
            return
        index = self.bottleneck_index
        est = self.stage(index) if index is not None else None
        if est is None:
            return
        stage = self.pipeline.stage(est.index)
        diags.add(
            "PHL401",
            "predicted bottleneck: %.0f%% of pipeline work is serialized here "
            "(predicted relative throughput %.4f/cycle)" % (100.0 * est.share, self.throughput),
            span=_first_span(walk(stage.body)) if stage is not None else None,
            where=_stage_label(stage) if stage is not None else ("stage %d" % est.index),
            severity=NOTE,
        )

    def _advise_queues(self, diags: DiagnosticSet) -> None:
        for e in self.edges:
            spec = self.pipeline.queues.get(e.qid)
            if spec is None:
                continue
            where = "queue %d (%s)" % (e.qid, e.label) if e.label else "queue %d" % e.qid
            if e.pressure == "full" and e.capacity < e.burst:
                diags.add(
                    "PHL402",
                    "producer stage %d outpaces consumer stage %d and enqueues "
                    "bursts of ~%.0f tokens into capacity %d: expect full-queue stalls"
                    % (e.producer_index, e.consumer_index, e.burst, e.capacity),
                    where=where,
                    severity=WARNING,
                )
            elif e.pressure == "empty" and e.capacity >= OVERSIZE_FACTOR * e.burst:
                diags.add(
                    "PHL403",
                    "consumer stage %d outpaces producer stage %d (bursts of "
                    "~%.0f tokens): capacity %d is mostly unused buffer"
                    % (e.consumer_index, e.producer_index, e.burst, e.capacity),
                    where=where,
                    severity=NOTE,
                )

    def _advise_distribution(self, diags: DiagnosticSet) -> None:
        for stage in self.pipeline.stages:
            du: Optional[DefUse] = None
            for stmt in walk(stage.body):
                if stmt.kind not in ("enq_dist", "enq_ctrl_dist"):
                    continue
                replica = getattr(stmt, "replica", None)
                if type(replica) is not str:
                    continue
                if du is None:
                    du = DefUse(stage.body)
                if _depends_on_load(replica, du) > 0:
                    diags.add(
                        "PHL404",
                        "distribution key %r is data-dependent: replica load "
                        "follows the key distribution and may be imbalanced" % replica,
                        span=stmt.span,
                        where=_stage_label(stage),
                        severity=WARNING,
                    )
                    break

    def _advise_issue(self, diags: DiagnosticSet) -> None:
        if len(self.stages) < 2:
            return
        if self.issue_demand > ISSUE_WIDTH:
            diags.add(
                "PHL405",
                "co-resident stage threads demand %.1f issue slots/cycle of a "
                "%g-wide core: stages will starve for issue credits"
                % (self.issue_demand, ISSUE_WIDTH),
                where="pipeline %s" % self.pipeline_name,
                severity=WARNING,
            )


# ---------------------------------------------------------------------------
# Per-statement service costs


def _stmt_cost(stmt: Any, access_kind: dict[int, Any], intrinsics: dict[str, Any]) -> float:
    """Service cost in cycles of one execution of ``stmt`` (headers count
    per iteration; block contents are priced separately)."""
    kind = stmt.kind
    if kind == "assign":
        return OP_COST.get(stmt.op, DEFAULT_OP_COST)
    if kind == "load":
        info = access_kind.get(id(stmt))
        if info is None:
            return LOAD_COST[OTHER]
        base = LOAD_COST[info.kind]
        if info.kind == INDIRECT and info.indirection > 1:
            base += INDIRECTION_COST * (info.indirection - 1)
        return base
    if kind == "store":
        return STORE_COST
    if kind == "prefetch":
        return PREFETCH_COST
    if kind in ("enq", "enq_ctrl", "deq", "peek", "enq_dist", "enq_ctrl_dist"):
        return QUEUE_OP_COST
    if kind == "is_control":
        return DEFAULT_OP_COST
    if kind == "for":
        return FOR_HEADER_COST
    if kind == "loop":
        return LOOP_HEADER_COST
    if kind == "if":
        return BRANCH_COST
    if kind in ("read_shared", "write_shared"):
        return SHARED_ACCESS_COST
    if kind == "call":
        intrinsic = intrinsics.get(stmt.func)
        cost = getattr(intrinsic, "cost", None)
        return float(cost) if cost else DEFAULT_CALL_COST
    if kind == "atomic_rmw":
        return ATOMIC_COST
    return 0.0  # barrier, break, continue, comment


def _issue_slots(stmt: Any, intrinsics: dict[str, Any]) -> float:
    """Issue slots one execution of ``stmt`` claims from the IssueLedger."""
    kind = stmt.kind
    if kind == "for":
        return 3.0
    if kind == "call":
        intrinsic = intrinsics.get(stmt.func)
        cost = getattr(intrinsic, "cost", None)
        return float(cost) if cost else DEFAULT_CALL_COST
    if kind == "atomic_rmw":
        return 3.0
    if kind in ("barrier", "break", "continue", "comment"):
        return 0.0
    return 1.0


# ---------------------------------------------------------------------------
# Topology solve


def analyze_pipeline(pipeline: Any) -> PerfReport:
    """Run the static performance model over a compiled pipeline.

    The per-statement costs and the issue width are the calibrated
    constants above. Pure analysis: no simulation, no mutation.
    """
    intrinsics = dict(getattr(pipeline, "intrinsics", {}) or {})

    queue_rate: dict[int, float] = {}  # stage-produced qid -> tokens/source-unit
    enq_depth: dict[int, int] = {}  # stage-produced qid -> max producing loop depth
    estimates: list[StageEstimate] = []
    drive_depth: dict[int, int] = {}

    def rate_of(qid: int) -> tuple[Any, Any, Optional[float], float]:
        """``qid``'s producing stage and queue (through its RA chain), its
        tokens per source unit when known, and the chain's SCAN expansion."""
        origin, origin_qid, ras = pipeline.upstream(qid)
        mult = 1.0
        for ra in ras:
            if ra.mode == RA_SCAN:
                mult *= SCAN_OUT_PER_IN
        if origin is None or origin_qid not in queue_rate:
            return origin, origin_qid, None, mult
        return origin, origin_qid, queue_rate[origin_qid] * mult, mult

    for stage in [pipeline.stage(idx) for kind, idx in pipeline.topo_order() if kind == "stage"]:
        access = {id(info.stmt): info for info in classify_loads(stage.body)}
        nest = list(walk_with_depth(stage.body))
        deq_level: dict[int, int] = {}
        for stmt, depth in nest:
            if stmt.kind in ("deq", "peek"):
                deq_level[stmt.queue] = min(depth, deq_level.get(stmt.queue, depth))

        # Each consumed queue *drives* the loop level its dequeue sits at:
        # statements at that level execute once per arriving token. Deeper
        # undriven loops multiply by the trip-weight base; levels above the
        # first driven one run correspondingly less often. A stage with no
        # resolvable producers (a source, or a feedback cycle) falls back
        # to treating its loop nest as real.
        level_rate: dict[int, float] = {}
        for qid, level in deq_level.items():
            if pipeline.consumer_stage(qid) is not stage:
                continue
            _origin, _origin_qid, rate, _mult = rate_of(qid)
            if rate is None:
                rate = estimated_trip_weight(level, base=int(TRIP_BASE))
            level_rate[level] = max(level_rate.get(level, 0.0), rate)
        driven = sorted(level_rate)

        def weight_at(depth: int) -> float:
            if not driven:
                return estimated_trip_weight(depth, base=int(TRIP_BASE))
            below = [d for d in driven if d <= depth]
            if below:
                dd = max(below)
                return max(1.0, level_rate[dd] * TRIP_BASE ** float(depth - dd))
            d0 = driven[0]
            return max(1.0, level_rate[d0] / TRIP_BASE ** float(d0 - depth))

        drive_depth[stage.index] = driven[0] if driven else 0
        drive = level_rate[driven[0]] if driven else 1.0

        work = 0.0
        uops = 0.0
        for stmt, depth in nest:
            weight = weight_at(depth)
            work += weight * _stmt_cost(stmt, access, intrinsics)
            uops += weight * _issue_slots(stmt, intrinsics)
            if stmt.kind in ("enq", "enq_dist") and stmt.value != "%ctrl":
                queue_rate[stmt.queue] = queue_rate.get(stmt.queue, 0.0) + weight
                enq_depth[stmt.queue] = max(enq_depth.get(stmt.queue, 0), depth)
        for handler in getattr(stage, "handlers", {}).values():
            # Handlers run once per delivered control value: rare relative
            # to the data stream, so weight them at the phase level (1.0).
            for stmt in walk(handler):
                work += _stmt_cost(stmt, access, intrinsics)
                uops += _issue_slots(stmt, intrinsics)
        estimates.append(StageEstimate(stage.index, stage.name, drive, work, uops))

    estimates.sort(key=lambda s: s.index)
    work_of = {s.index: s.work for s in estimates}

    edges: list[EdgeEstimate] = []
    for qid, spec in sorted(pipeline.queues.items()):
        consumer = pipeline.consumer_stage(qid)
        if consumer is None:
            continue
        cidx = consumer.index
        origin, origin_qid, rate, mult = rate_of(qid)
        if origin is None or origin.index not in work_of:
            continue
        wp, wc = work_of[origin.index], work_of[cidx]
        if wp < wc * (1.0 - PRESSURE_MARGIN):
            pressure = "full"
        elif wc < wp * (1.0 - PRESSURE_MARGIN):
            pressure = "empty"
        else:
            pressure = "balanced"
        # Burst estimate: tokens the producer emits back-to-back before its
        # enclosing loop level yields — one trip of the innermost enqueueing
        # loop, expanded by any SCAN RA on the way down.
        depth = enq_depth.get(origin_qid, 0)
        burst = (TRIP_BASE if depth > 0 else 1.0) * mult
        edges.append(
            EdgeEstimate(
                qid,
                spec.label or "",
                origin.index,
                cidx,
                rate if rate is not None else 0.0,
                pressure,
                burst,
                int(spec.capacity),
            )
        )

    return PerfReport(pipeline, estimates, edges)


def perf_advisories(pipeline: Any, diags: Optional[DiagnosticSet] = None) -> DiagnosticSet:
    """One-call wrapper: model the pipeline, return its PHL4xx findings."""
    return analyze_pipeline(pipeline).advisories(diags)


def static_score(pipeline: Any) -> float:
    """The autotuner's pruning score (higher predicts faster)."""
    return analyze_pipeline(pipeline).static_score()


# ---------------------------------------------------------------------------
# Validation against measured SimStats


def measured_stage_busy(stats: Any) -> dict[int, float]:
    """Measured busy cycles per stage index, from a run's ``SimStats``.

    Busy = issue + backend + branch: time the stage thread was doing or
    waiting on its *own* work, excluding queue stalls (waiting on peers)
    and barriers (phase sync) — the quantity the static model predicts.
    Replicas aggregate by stage index.
    """
    busy: dict[int, float] = {}
    for thread in getattr(stats, "threads", []):
        match = _THREAD_RE.match(getattr(thread, "name", "") or "")
        if match is None:
            continue
        parts = thread.breakdown()
        index = int(match.group(2))
        busy[index] = busy.get(index, 0.0) + parts["issue"] + parts["backend"] + parts["branch"]
    return busy


def validate_prediction(
    pipeline: Any, stats: Any, tol: float = VALIDATE_TOL
) -> dict[str, Any]:
    """Cross-check the model's bottleneck against a measured run.

    The prediction *holds* when either side agrees up to ``tol``:

    * the predicted stage's measured busy time is within ``tol`` of the
      busiest stage's, or
    * the measured busiest stage is in the *predicted-peak set* — stages
      whose predicted work is within ``tol`` of the predicted maximum.
      (Symmetric stages — data-parallel workers — tie statically; which
      one measures busiest is decided by data skew the static model
      cannot see.)

    Returns a dict with the verdict and both sides' evidence.
    """
    report = analyze_pipeline(pipeline)
    busy = measured_stage_busy(stats)
    predicted = report.bottleneck_index
    work = {s.index: s.work for s in report.stages}
    peak_work = max(work.values()) if work else 0.0
    predicted_set = sorted(
        i for i, w in work.items() if w >= (1.0 - tol) * peak_work
    )
    measured: Optional[int] = None
    if busy:
        peak = max(busy.values())
        measured = min(i for i, b in busy.items() if b == peak)
    ok = False
    if predicted is not None and busy and measured is not None:
        peak = max(busy.values())
        ok = (
            busy.get(predicted, 0.0) >= (1.0 - tol) * peak
            or measured in predicted_set
        )
    return {
        "pipeline": report.pipeline_name,
        "predicted": predicted,
        "predicted_set": predicted_set,
        "measured": measured,
        "ok": ok,
        "tolerance": tol,
        "busy": busy,
        "work": work,
    }


__all__ = [
    "EdgeEstimate",
    "PerfReport",
    "StageEstimate",
    "analyze_pipeline",
    "measured_stage_busy",
    "perf_advisories",
    "static_score",
    "validate_prediction",
]
