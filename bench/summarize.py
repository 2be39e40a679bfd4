#!/usr/bin/env python3
"""Summarize benchmark records: median, quartiles and spread per workload and metric.

    python3 bench/summarize.py .bench_out/*-trace0.json > summary.json

Each argument is a record written by run.py.  Records are grouped by
workload and trace mode.  The spread is (q3 - q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``.  The output also keeps
each group's context and the search counts of its runs, which must agree.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def summarize(records: list[dict]) -> dict:
    groups: dict[str, list[dict]] = defaultdict(list)
    for rec in records:
        groups[f"{rec['workload']}/trace{rec['trace']}"].append(rec)
    out = {}
    for key, recs in sorted(groups.items()):
        values: dict[str, list[float]] = defaultdict(list)
        for rec in recs:
            for name, metric in rec["result"]["metrics"].items():
                values[name].append(metric["value"])
        metrics = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            metrics[name] = {
                "n": len(vals),
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else None,
            }
        counts = [json.dumps(rec["search"], sort_keys=True) for rec in recs]
        out[key] = {
            "runs": len(recs),
            "seeds": sorted(rec["seed"] for rec in recs),
            "failed_runs": sum(not rec["result"]["correct"] for rec in recs),
            "context": recs[0]["context"],
            "search_counts_agree": len(set(counts)) == 1,
            "search": recs[0]["search"],
            "metrics": metrics,
        }
    return out


def main(paths: list[str]) -> int:
    records = []
    for path in paths:
        with open(path) as handle:
            records.append(json.load(handle))
    json.dump(summarize(records), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
