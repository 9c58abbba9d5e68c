"""``run.py --compare A.json B.json``: did B regress against A?

Per workload and end-to-end metric: both medians over the files' runs, the
change of B relative to A (positive = worse), the metric's bound, and a
verdict. ``unresolved`` means the run-to-run spread (the interquartile range
over the median, the wider of the two sides) exceeds the bound, so the
comparison cannot tell a regression from noise - unless every run of B
reads better than every run of A.
"""

import json
import statistics

import spec


def _values(record, workload, metric):
    return [
        run[workload]["end_to_end"][metric]
        for run in record["runs"]
        if workload in run and metric in run[workload].get("end_to_end", {})
    ]


def _spread(values):
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def verdict(a, b, metric):
    """``(median a, median b, worse-by fraction, spread, status)``."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if metric.better == "lower" else -1.0
    worse = sign * (med_b - med_a) / med_a
    spread = max(_spread(a), _spread(b))
    if sign > 0:
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    if spread > metric.bound and not all_better:
        status = "unresolved"
    elif worse > metric.bound:
        status = "regressed"
    else:
        status = "ok"
    return med_a, med_b, worse, spread, status


def main(path_a, path_b):
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    bad = 0
    print("%-14s %-14s %12s %12s %9s %7s %7s  %s" % (
        "workload", "metric", "A median", "B median", "B vs A", "bound", "spread", "verdict"))
    for workload in spec.WORKLOADS:
        ops = [
            {run[workload].get("ops") for run in record["runs"] if workload in run}
            for record in (a, b)
        ]
        if not ops[0] or not ops[1]:
            continue
        if len(ops[0] | ops[1]) != 1:
            print("%-14s ops differ: %s vs %s" % (workload, sorted(ops[0]), sorted(ops[1])))
            bad += 1
        for metric in spec.END_TO_END:
            va, vb = _values(a, workload, metric.name), _values(b, workload, metric.name)
            if not va or not vb:
                continue
            med_a, med_b, worse, spread, status = verdict(va, vb, metric)
            bad += status == "regressed"
            print("%-14s %-14s %12.6g %12.6g %+8.1f%% %6.0f%% %6.1f%%  %s" % (
                workload, metric.name, med_a, med_b, 100 * worse, 100 * metric.bound,
                100 * spread, status))
        failed = sum(run[workload]["failed"] for run in b["runs"] if workload in run)
        if failed:
            print("%-14s %d failed operations in B" % (workload, failed))
            bad += 1
    print("B vs A is relative to A's median; positive is worse. n = %d vs %d runs." % (
        len(a["runs"]), len(b["runs"])))
    return 1 if bad else 0

