"""Evaluation harness regenerating the paper's figures.

``harness`` runs variant suites behind the unified :class:`BenchAdapter`
into RunRecords; ``parallel`` fans independent jobs over a worker pool;
``experiments`` holds the ``FIGURES`` registry (a collector of records and a
pure renderer per figure); ``report`` renders ASCII tables plus the
cache/wall-time summaries.
"""

from .harness import (
    DP_THREADS,
    QUICK,
    BenchAdapter,
    SuiteResult,
    adapter_for,
    profile_guided_pipeline,
    run_suite,
)
from .parallel import Job, JobResult, resolve_jobs, run_jobs

__all__ = [
    "DP_THREADS",
    "QUICK",
    "BenchAdapter",
    "SuiteResult",
    "adapter_for",
    "profile_guided_pipeline",
    "run_suite",
    "Job",
    "JobResult",
    "resolve_jobs",
    "run_jobs",
]
