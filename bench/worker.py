"""One benchmark process: set up a workload, run passes, print a JSON summary.

Started by run.py with ``PYTHONPATH=src``, so it imports biramsey from the
source tree.  It prints ``ready`` once the inputs are built (run.py times
set-up up to that line), then, unless ``--setup-only``, runs passes for
``--seconds`` and prints its summary as the last line.

Untraced runs repeat untraced passes.  Traced runs alternate an untraced and
a traced pass; the per-layer metrics come from the traced passes and the
tracing overhead is the difference of the two walls.

Timings are scaled to a fixed host speed (see reference.py), and a pass's
wall is the sum over its operations of each one's median scaled wall time in
the run.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from biramsey.search import ARROWS, BUDGET_EXHAUSTED, NOT_ARROWS, PRUNE_RULES

from tracing import LAYERS, BENCH_LAYER, Recorder, busy_time, call_stats, self_times
from workloads import WORKLOADS, run_pass, setup, table_counts

OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"
VERDICTS = (ARROWS, NOT_ARROWS, BUDGET_EXHAUSTED)


def median_pass(rows) -> float:
    """Sum over columns of each column's median (rows are passes, columns operations)."""
    return sum(statistics.median(column) for column in zip(*rows))


def pass_wall(passes) -> float:
    """One pass, every operation at its median wall time at the reference speed."""
    return median_pass([p.op_scaled for p in passes])


def end_to_end(passes) -> dict:
    return {
        "wall_s": pass_wall(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def named(workload, passes) -> dict:
    """The workload's own timings under their names, for the human-readable report."""
    out = {
        metric: median_pass([
            [t for op, t in zip(workload.ops, p.op_scaled) if op.metric == metric]
            for p in passes
        ])
        for metric in workload.timings()
    }
    for rate, (metric, units) in workload.rates.items():
        out[rate] = units / out[metric] if out[metric] else 0.0
    out["unscaled_wall_s"] = statistics.median([sum(p.op_walls) for p in passes])
    return out


def layer_metrics(p, setup_spans, entries) -> dict:
    """Per-layer figures of one traced pass."""
    spans, tally, counts = p.spans, p.tally, p.search
    busy = busy_time(spans, "search")
    verify_calls, verify_s = call_stats(spans, "verify_good_coloring")
    biclique_calls, biclique_s = call_stats(spans, "find_biclique")
    export_s = call_stats(spans, "write_dimacs")[1]
    roundtrip_s = call_stats(spans, "serialize_witness")[1] + call_stats(spans, "parse_witness")[1]
    build_s = call_stats(setup_spans, "build_table")[1]
    table = table_counts(entries)
    out = {
        "search.busy_s": busy,
        "search.decisions": counts["decisions"],
        "search.nodes": counts["nodes"],
        "search.attempts": counts["attempts"],
        "search.useful_ratio": counts["nodes"] / counts["attempts"] if counts["attempts"] else 0.0,
        "search.attempts_per_s": counts["attempts"] / busy if busy else 0.0,
    }
    out.update({f"search.prunes.{r}": counts["prunes"].get(r, 0) for r in PRUNE_RULES})
    out.update({f"search.verdicts.{v}": counts["verdicts"].get(v, 0) for v in VERDICTS})
    out.update({
        "witnesses.verify_calls": verify_calls,
        "witnesses.verify_s": verify_s,
        "witnesses.invalid_detected": tally["invalid_detected"],
        "witnesses.roundtrip_s": roundtrip_s,
        "core.find_biclique_calls": biclique_calls,
        "core.find_biclique_s": biclique_s,
        "cnf.export_s": export_s,
        "cnf.clauses_emitted": tally["clauses_emitted"],
        "cnf.bytes_emitted": tally["bytes_emitted"],
        "cnf.bytes_per_s": tally["bytes_emitted"] / export_s if export_s else 0.0,
        "cnf.satisfies_s": call_stats(spans, "satisfies")[1],
        "cnf.clauses_checked": tally["clauses_checked"],
        "cnf.decode_s": call_stats(spans, "decode_model")[1],
        "table.build_s": build_s,
        "table.rows": table["rows"],
        "table.verified_rows": table["verified_rows"],
    })
    selfs = self_times(spans)
    selfs["table"] = self_times(setup_spans)["table"]  # the table is built once, in set-up
    out.update({f"{layer}.self_s": selfs[layer] for layer in LAYERS + (BENCH_LAYER,)})
    out["trace.spans"] = len(spans)
    return out


def measure(workload, seconds: float, trace: bool) -> list:
    """Passes until the next one would overrun ``seconds``; at least one (pair)."""
    passes = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        passes.append(run_pass(workload, Recorder(tracing=False)))
        if trace:
            passes.append(run_pass(workload, Recorder(tracing=True)))
        now = time.perf_counter()
        if (now - start) + (now - round_start) > seconds:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup_recorder = Recorder(tracing=bool(args.trace))
    workload, entries = setup(args.workload, args.seed, setup_recorder)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    passes = measure(workload, args.seconds, bool(args.trace))
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes) + 1
    reference = passes[0].search
    if any(p.search != reference for p in passes):
        failures.append("search counts differ between passes of one run")

    untraced = [p for p in passes if not p.spans]
    traced = [p for p in passes if p.spans]
    if traced:
        per_pass = [layer_metrics(p, setup_recorder.spans, entries) for p in traced]
        metrics = {key: statistics.median([m[key] for m in per_pass]) for key in per_pass[0]}
        metrics["trace.overhead_s"] = pass_wall(traced) - pass_wall(untraced)
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({"setup": setup_recorder.spans, "passes": [p.spans for p in traced]}))
    else:
        metrics = end_to_end(untraced)

    print(json.dumps({
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "passes": len(passes),
        "pass_walls": [sum(p.op_walls) for p in untraced],
        "op_walls": [p.op_walls for p in untraced],
        "op_scaled": [p.op_scaled for p in untraced],
        "segments": [p.segments for p in untraced],
        "metrics": metrics,
        "named": named(workload, untraced),
        "search": reference,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
