"""The load generator every workload shares: timed operations and passes.

A workload is a list of *operations*; a *pass* runs each once. Passes
repeat until the time budget is spent, and an operation's cost is its
fastest wall across passes, so a run that fits more passes gets a steadier
estimate of the same quantity, never a different quantity.

The sandbox this runs in switches, every few seconds and independently per
CPU, between speed modes up to 1.7x apart (a busy SMT sibling or
neighbour). Dividing by a calibration loop over-corrects (the simulator
slows 1.2x where a pure-Python loop slows 1.4x), so times stay raw and the
load generator instead *settles* before it measures: it times a short fixed
loop, moves to whichever allowed CPU runs it within 10 % of the fastest
seen, and when every CPU is slow waits, within a per-run patience budget,
for one to recover. What it could not avoid shows as ``host.slowdown``.
"""

import collections
import gc
import os
import statistics
import sys
import time
import traceback

import spans

Phase = collections.namedtuple("Phase", "samples slowdown passes")

SPIN_ITERATIONS = 20000
#: A CPU is in its fast mode when the spin runs within this of the fastest seen.
FAST = 1.10
#: A settle this recent is reused, so millisecond operations are not
#: outweighed by their own probes.
REUSE_S = 0.05
#: Share of the time budget a run may spend waiting for a fast CPU.
PATIENCE = 0.5


def spin():
    start = time.perf_counter()
    x = 0
    for i in range(SPIN_ITERATIONS):
        x += i * i % 7
    return time.perf_counter() - start


def median_ms(values):
    return statistics.median(values) * 1e3


def p99_ms(values):
    return statistics.quantiles(values, n=100, method="inclusive")[98] * 1e3


def summarize(samples):
    """The sample-derived end-to-end metrics of one phase.

    An operation costs its fastest pass, as in ``bench.perf`` ("the minimum
    estimates the noise-free cost; means smear scheduler jitter into the
    record"): with settling, noise here is one-sided, and across same-seed
    runs the minimum spread half as wide as the median of three passes.
    """
    costs = [min(walls) for walls in samples.values()]
    return {
        "wall_s": sum(costs),
        "op_p50_ms": statistics.median(costs) * 1e3,
        "slowest_op_ms": max(costs) * 1e3,
    }


class Workload:
    """What run.py drives: ``setup``, ``one_pass`` until time is up, then
    (traced runs) ``extras`` filling ``ctx.layers``, then ``teardown``."""

    #: Passes an untraced run never goes under.
    min_passes = 3
    #: Traced runs fold into the share table the spans whose op id starts so.
    share_ops_prefix = ""

    def teardown(self, ctx):
        pass


class Host:
    """Finds a CPU in its fast mode, for this process and those it starts."""

    def __init__(self, cpus, patience=0.0):
        #: CPUs the process may move between. A workload whose work runs in
        #: other processes (frontdoor) narrows this to the one they share.
        self.cpus = list(cpus)
        #: Seconds left to spend waiting while every CPU is slow.
        self.patience = patience
        self._floor = float("inf")
        self._settled = (0.0, 1.0)

    def probe(self):
        """The current CPU's slowdown (1.0 = the fastest probe seen so far)."""
        took = statistics.median(spin() for _ in range(3))
        self._floor = min(self._floor, took)
        return took / self._floor

    def settle(self, fresh=True):
        """Get onto a CPU in its fast mode; returns its slowdown."""
        if not fresh and time.perf_counter() - self._settled[0] < REUSE_S:
            return self._settled[1]
        while True:
            here = os.sched_getaffinity(0)
            probes = {}
            # The CPU we are on first: stay when it is fast.
            for cpu in [c for c in self.cpus if {c} == here] + [
                c for c in self.cpus if {c} != here
            ]:
                os.sched_setaffinity(0, {cpu})
                probes[cpu] = self.probe()
                if probes[cpu] <= FAST:
                    break
            best = min(probes, key=probes.get)
            if probes[best] <= FAST or self.patience <= 0:
                os.sched_setaffinity(0, {best})
                self._settled = (time.perf_counter(), probes[best])
                return probes[best]
            time.sleep(0.1)
            self.patience -= 0.1


class Context:
    """State of one workload run: samples, failures, spans, layer metrics."""

    def __init__(self, seed, work, cpus):
        self.seed = seed
        self.work = work
        self.rec = spans.Recorder()
        self.host = Host(cpus)
        self.samples = collections.OrderedDict()
        self.slowdowns = []
        self.attempted = 0
        self.failures = []
        self.layers = {}
        self.info = {}

    def _before(self, precise):
        if precise:
            gc.collect()
        return self.host.settle(fresh=precise)

    def _after(self, before, precise):
        # Millisecond operations trust the settle; probing after each would
        # cost as much as the operation.
        self.slowdowns.append(max(before, self.host.probe()) if precise else before)

    def clock(self, fn, *args, precise=False, **kwargs):
        """``(fn(*args, **kwargs), seconds it took)`` on a settled CPU.

        ``precise`` is for multi-second operations: it quiesces the GC first,
        as ``bench.perf._timed_run`` does, and probes before and after.
        """
        before = self._before(precise)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        self._after(before, precise)
        return result, wall

    def op(self, op_id, fn, precise=False):
        """Run ``fn()`` as one timed sample of operation ``op_id``.

        An exception is a failed operation, not a failed benchmark: it is
        named on stderr and counted.
        """
        self.attempted += 1
        before = self._before(precise)
        with self.rec.span("benchmark", "op", op=op_id):
            start = time.perf_counter()
            try:
                result = fn()
            except Exception:
                self.fail(op_id, traceback.format_exc(limit=4).strip())
                return None
            wall = time.perf_counter() - start
        self._after(before, precise)
        self.samples.setdefault(op_id, []).append(wall)
        return result

    def fail(self, op_id, message):
        self.failures.append("%s: %s" % (op_id, message))
        print("FAIL %s: %s" % (op_id, message), file=sys.stderr)

    def measure(self, one_pass, seconds, min_passes, traced=False):
        """Repeat ``one_pass(self)`` for ``seconds``; returns the phase.

        Stops before a pass that would overrun the budget, but never under
        ``min_passes``. The GC is off for the whole phase and collected
        between passes.
        """
        self.samples = collections.OrderedDict()
        self.slowdowns = []
        self.host.patience = PATIENCE * seconds
        self.rec.enabled = traced
        was_enabled = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        passes = 0
        try:
            while True:
                gc.collect()
                pass_start = time.perf_counter()
                one_pass(self)
                passes += 1
                now = time.perf_counter()
                if passes >= min_passes and now - started + (now - pass_start) > seconds:
                    break
        finally:
            self.rec.enabled = False
            if was_enabled:
                gc.enable()
        return Phase(self.samples, statistics.median(self.slowdowns), passes)
