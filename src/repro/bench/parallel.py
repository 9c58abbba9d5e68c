"""Parallel job fan-out for the evaluation harness.

The figures/suites workload is an embarrassingly parallel graph of
independent jobs — ``(figure)``, ``(benchmark)``, ``(benchmark, input)`` —
each a deterministic pure computation. :func:`run_jobs` fans a list of
:class:`Job` s out over a ``fork``-based ``multiprocessing`` pool and
returns results in submission order, so a parallel run is bit-identical to
the serial one.

Determinism and safety rules:

* every job gets a seed derived from its key (CRC32) and the global RNG is
  reseeded with it before the job body runs — on the serial path too, so
  both paths see identical RNG state;
* workers mark themselves via an environment flag and any nested
  :func:`run_jobs` call inside a worker degrades to the serial path (no
  daemonic-pool explosions);
* jobs are handed to workers by index through a module global captured at
  ``fork`` time, so job callables may be closures over arbitrary
  unpicklable state — only *results* must pickle;
* each worker returns its :mod:`repro.cache` hit/miss delta alongside the
  result, and the parent folds those into its own counters, so cache stats
  reflect the whole fleet.

Worker count: the ``workers`` argument, else the ``REPRO_JOBS`` environment
variable, else 1 (serial).
"""

import multiprocessing
import os
import random
import time
import zlib

from .. import cache

#: Set in pool workers; guards against nested pools.
_WORKER_FLAG = "REPRO_PARALLEL_WORKER"


class Job:
    """One schedulable unit: a key, a callable, and a deterministic seed."""

    __slots__ = ("key", "fn", "args", "kwargs", "seed")

    def __init__(self, key, fn, *args, **kwargs):
        self.key = key
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.seed = zlib.crc32(str(key).encode("utf-8"))

    def __repr__(self):
        return "Job(%s)" % (self.key,)


class JobResult:
    """A finished job: its key, return value, and wall-clock seconds."""

    __slots__ = ("key", "value", "wall")

    def __init__(self, key, value, wall):
        self.key = key
        self.value = value
        self.wall = wall

    def __repr__(self):
        return "JobResult(%s, %.2fs)" % (self.key, self.wall)


def resolve_jobs(explicit=None):
    """Worker count: ``explicit`` > ``REPRO_JOBS`` env > 1."""
    if explicit is not None:
        return max(1, int(explicit))
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def in_worker():
    """True inside a pool worker (nested fan-out must stay serial)."""
    return bool(os.environ.get(_WORKER_FLAG))


def _run_one(job):
    random.seed(job.seed)
    start = time.perf_counter()
    value = job.fn(*job.args, **job.kwargs)
    return JobResult(job.key, value, time.perf_counter() - start)


#: Job list for the active pool; workers inherit it via fork and index in.
_POOL_JOBS = None


def _pool_init():
    os.environ[_WORKER_FLAG] = "1"


def _pool_run(index):
    before = cache.stats()
    result = _run_one(_POOL_JOBS[index])
    return result, cache.stats_since(before)


#: Results of every top-level job since the last :func:`clear_job_log`
#: (the figures CLI prints these as its per-job wall-time summary).
_JOB_LOG = []


def job_log():
    """The accumulated :class:`JobResult` s (per-job wall-time reporting)."""
    return list(_JOB_LOG)


def clear_job_log():
    """Drop the accumulated job log (start of a CLI invocation)."""
    del _JOB_LOG[:]


def _fork_available():
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:
        return False


def run_jobs(jobs, workers=None):
    """Run ``jobs`` and return their :class:`JobResult` s in submission order.

    With ``workers`` <= 1 (or a single job, or inside a pool worker, or on
    a platform without ``fork``) the jobs run serially in-process; results
    are identical either way.
    """
    global _POOL_JOBS
    jobs = list(jobs)
    workers = resolve_jobs(workers)
    parallel = (
        workers > 1 and len(jobs) > 1 and not in_worker() and _fork_available()
    )
    if not parallel:
        results = [_run_one(job) for job in jobs]
        _JOB_LOG.extend(results)
        return results

    _POOL_JOBS = jobs
    try:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(workers, len(jobs)), initializer=_pool_init) as pool:
            out = pool.map(_pool_run, range(len(jobs)))
    finally:
        _POOL_JOBS = None
    results = []
    for result, delta in out:
        cache.merge_stats(delta)
        results.append(result)
    _JOB_LOG.extend(results)
    return results
