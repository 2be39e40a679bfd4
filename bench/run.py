#!/usr/bin/env python3
"""Run one biramsey benchmark workload and print its metrics.

    python3 bench/run.py --workload exhaust|scan|cnf --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from
``src/``.  Each workload runs in a fresh single-threaded worker process with
the default SearchConfig, as a CLI user runs ``biramsey``.  Set-up time is
the median over several set-up-only processes, each timed from its start
until its inputs are ready; half of them run before the measured worker and
half after it, so the samples span the run.  Like every timing the
benchmark gates, each is scaled to a fixed host speed by the reference loop
timed right before and after it (see reference.py).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones (see
bench/METRICS.md).  Any failed operation makes ``correct`` false and the
exit code 1.  A record with the run's context goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import reference_time, scaled

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 16  # set-up-only processes per run
TIMEOUT_S = 170.0  # the whole run must end within 180 s


def unit(name: str, units: dict[str, str]) -> str:
    """Unit from BENCHMARK.json; the workload's own named timings are seconds or rates."""
    return units.get(name) or ("1/s" if name.endswith("_per_s") else "s")


class WorkerError(RuntimeError):
    pass


def start_worker(args, setup_only: bool, deadline: float):
    """Start a worker, wait for its ``ready`` line; returns (process, set-up seconds)."""
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc, deadline)
        raise WorkerError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, setup


def finish(proc, deadline: float) -> str:
    """Remaining stdout of a worker, once it has exited; killed at the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker overran the time limit and was killed") from None
    return out


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def context() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "biramsey" / "__init__.py").is_file():
        print(f"no biramsey source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIMEOUT_S
    try:
        setups = []

        def setup_only(count: int) -> None:
            for _ in range(count):
                before = reference_time()
                proc, setup = start_worker(args, True, deadline)
                finish(proc, deadline)
                setups.append(scaled(setup, before, reference_time()))

        setup_only(SETUP_SAMPLES // 2)
        proc, _ = start_worker(args, False, deadline)
        lines = finish(proc, deadline).strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerError(f"worker failed (exit code {proc.returncode})")
        setup_only(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    except WorkerError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    summary = json.loads(lines[-1])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    metrics = dict(summary["metrics"])
    if not args.trace:
        metrics = {"setup_s": statistics.median(setups), **metrics}
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit(name, units)} for name, value in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": context(),
        "result": result,
        "passes": summary["passes"],
        "pass_walls": summary["pass_walls"],
        "op_walls": summary["op_walls"],
        "op_scaled": summary["op_scaled"],
        "segments": summary["segments"],
        "named": summary["named"],
        "search": summary["search"],
        "setup_samples": setups,
        "failures": summary["failures"],
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {summary['passes']}")
    for name, value in list(metrics.items()) + list(summary["named"].items()):
        print(f"  {name:<32} {value:>16.6g} {unit(name, units)}")
    print(f"  {'error_rate':<32} {summary['failed'] / summary['attempted']:>16.6g} ratio"
          f"  ({summary['failed']} of {summary['attempted']} operations failed)")
    counts = summary["search"]
    print(f"  search counts per pass: decisions {counts['decisions']}  nodes {counts['nodes']}"
          f"  attempts {counts['attempts']}  prunes {counts['prunes']}  verdicts {counts['verdicts']}")
    for failure in summary["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
