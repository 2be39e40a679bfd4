"""Inputs, operations and correctness gate of the biramsey benchmark.

Workloads (the names later changes refer to):

* ``exhaust``: ``arrows`` on 8x19, 8x20 and 6x23 at t=4, ARROWS proofs
  that exhaust the canonical tree.  Nearly all attempts are coverage-pruned,
  so the time goes to candidate generation, the coverage test and push/pop.
  No leaf reaches verification.
* ``scan``: ``find_br_m`` on the registry rows t=3, m=4..8 and t=4, m=5..7 in
  a seed-chosen order, then ``find_br_m(6, 5, 30)``.  The same search layer
  makes dozens of short decisions, most of them stopping at the first good
  coloring, so per-call set-up, DFS order and witness verification weigh more
  than in ``exhaust``.
* ``cnf``: the (7,20,5) DIMACS export into a hashing sink, and the clause
  check and strict decode of the model of a 6x26 coloring: 26 seed-chosen
  columns of the 6x39 fixture, relabelled by the seed.  It bypasses
  ``search``, so a search optimisation should not move it.

Timings are scaled to a fixed host speed over stretches of about a second
or less (see reference.py): one operation, or the decisions of a
``find_br_m`` up to a boundary.  A pass takes a few seconds, so a run holds
several.  The larger instances the engine decides (6x40 and 8x16 arrows, the
scan up to n=39, the (7,30,5) export) take 4-35 s in one call; the host's
speed changes within such a call, so it could not be scaled.

Every pass of every workload starts with the same probe of well under a
second: the smallest ARROWS and NOT_ARROWS decisions of the BR_7(K_{2,2},
K_{3,3}) = 9 row, the (7,8,3) export and model check, the bundled fixtures
relabelled by the seed, and seed-corrupted copies of them.  It gates every
layer on known answers and gives every layer a span on every workload.

The seed chooses the scan row order, the relabellings, the columns kept for
the model check and the flipped edges.
Verdicts and values do not depend on it.  The engine is always called
through module attributes (``search.arrows``), so a Recorder can wrap them.
"""

from __future__ import annotations

import hashlib
import json
import random
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from biramsey import cnf, core, search, table, witnesses
from biramsey.core import BicliqueSpec, BipartiteGraph
from biramsey.search import ARROWS, NOT_ARROWS, ArrowingInstance
from biramsey.witnesses import EXACT, LOWER_BOUND, VERIFIED_WITNESS

from reference import SPLIT_S, Gauge
from tracing import Recorder, search_counts

MODULES = {"search": search, "witnesses": witnesses, "core": core, "cnf": cnf, "table": table}
GOLDEN_PATH = Path(__file__).with_name("golden.json")
WORKLOADS = ("exhaust", "scan", "cnf")
CORRUPTED_COPIES = 2  # per fixture and pass
K22 = BicliqueSpec(2, 2)


class GateFailure(Exception):
    """An output disagrees with the registry, a fixture or the golden record."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


@dataclass(frozen=True)
class Op:
    """One gated operation; ``run`` raises GateFailure on a wrong output."""

    name: str
    metric: str | None  # the named timing this op adds to, if any
    run: Callable[[Counter], None]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    rates: dict = field(default_factory=dict)  # name -> (timing it divides, units of work)

    def timings(self) -> list[str]:
        """The named timings its ops add to, printed per run but not gated."""
        return sorted({op.metric for op in self.ops if op.metric})


@dataclass
class PassResult:
    op_walls: list[float]  # per operation, in order, gate checks included
    op_scaled: list[float]  # the same at the reference speed (see reference.py)
    segments: int  # stretches timed between two runs of the reference loop
    tally: Counter
    attempted: int
    failures: list[str]
    search: dict
    spans: list[dict]  # empty for an untraced pass


# --- inputs ---------------------------------------------------------------


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text())


def relabel(graph: BipartiteGraph, rng: random.Random) -> BipartiteGraph:
    """The same coloring with rows and columns permuted; goodness is invariant."""
    rows = list(range(graph.m))
    cols = list(range(graph.n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    old = graph.rows
    return BipartiteGraph.from_rows(
        graph.m, graph.n, ([cols[j] for j in old[i]] for i in rows)
    )


def restrict(graph: BipartiteGraph, columns: int, rng: random.Random) -> BipartiteGraph:
    """The coloring on ``columns`` of its columns, chosen by ``rng`` and renumbered in order.

    Deleting columns keeps a good coloring good: neither K_{2,2} in the
    graph nor K_{t,t} in its complement can appear.
    """
    keep = sorted(rng.sample(range(graph.n), columns))
    return BipartiteGraph.from_rows(
        graph.m, columns, ([k for k, j in enumerate(keep) if j in row] for row in graph.rows)
    )


def corrupt(graph: BipartiteGraph, rng: random.Random) -> BipartiteGraph:
    """Copy with one added edge that closes a C4, so it is invalid by construction.

    Row i gains a column j of a row k that already meets row i in exactly one
    column; rows i and k then share two columns.
    """
    masks = graph.row_masks
    choices = [
        (i, j)
        for i in range(graph.m)
        for k in range(graph.m)
        if k != i and (masks[i] & masks[k]).bit_count() == 1
        for j in range(graph.n)
        if (masks[k] & ~masks[i]) >> j & 1
    ]
    if not choices:
        raise ValueError("no two rows of the graph share exactly one column")
    i, j = rng.choice(choices)
    flipped = list(masks)
    flipped[i] |= 1 << j
    return BipartiteGraph(graph.m, graph.n, tuple(flipped))


class HashingSink:
    """Text sink that hashes and counts what is written, holding one chunk at a time."""

    CHUNK = 4096  # writes joined per hash update

    def __init__(self):
        self._hash = hashlib.sha256()
        self._pending: list[str] = []
        self.bytes = 0
        self.lines = 0
        self.first_line: str | None = None

    def write(self, text: str) -> int:
        self._pending.append(text)
        if len(self._pending) >= self.CHUNK:
            self._flush()
        return len(text)

    def _flush(self) -> None:
        chunk = "".join(self._pending).encode("ascii")
        self._pending.clear()
        if self.first_line is None:
            self.first_line = chunk.split(b"\n", 1)[0].decode("ascii")
        self._hash.update(chunk)
        self.bytes += len(chunk)
        self.lines += chunk.count(b"\n")

    def hexdigest(self) -> str:
        self._flush()
        return self._hash.hexdigest()


# --- gate checks ----------------------------------------------------------


def check_good(graph: BipartiteGraph, t: int):
    """Re-verify a claimed good coloring, and search both bicliques directly."""
    cert = witnesses.verify_good_coloring(graph, t)
    check(cert.valid, f"{graph.m}x{graph.n} coloring fails re-verification for t={t}")
    check(core.find_biclique(graph, K22) is None, "K_{2,2} found in the coloring")
    check(
        core.find_biclique(core.complement(graph), BicliqueSpec(t, t)) is None,
        f"K_{{{t},{t}}} found in the complement",
    )
    return cert


def check_certificate(cert, m: int, n: int, t: int) -> None:
    check(cert is not None, "no certificate returned")
    check(cert.valid, "certificate claims to be invalid")
    check((cert.graph.m, cert.graph.n) == (m, n), f"certificate is {cert.graph.m}x{cert.graph.n}, expected {m}x{n}")
    check_good(cert.graph, t)


# --- operations -----------------------------------------------------------


def arrows_op(m: int, n: int, t: int, expected: str, metric: str | None = None) -> Op:
    def run(tally: Counter) -> None:
        out = search.arrows(ArrowingInstance(m, n, t))
        check(out.verdict == expected, f"verdict {out.verdict}, expected {expected}")
        if expected == NOT_ARROWS:
            check_certificate(out.certificate, m, n, t)

    return Op(f"arrows {m}x{n} t={t}", metric, run)


def scan_value_op(m: int, t: int, value: int, metric: str | None = None) -> Op:
    """find_br_m must return the exact value with a good coloring at n = value - 1."""

    def run(tally: Counter) -> None:
        rec = search.find_br_m(m, t, value + 1)
        check(rec.status == EXACT and rec.value == value, f"got {rec.describe()}, expected {value}")
        check_certificate(rec.certificate, m, value - 1, t)

    return Op(f"find_br_m m={m} t={t}", metric, run)


def scan_bound_op(
    m: int, t: int, limit: int, bound: int, expected: BipartiteGraph, metric: str | None = None
) -> Op:
    """A scan cut at ``limit`` must return the lower bound with ``expected`` as its certificate."""

    def run(tally: Counter) -> None:
        rec = search.find_br_m(m, t, limit)
        check(rec.status == LOWER_BOUND and rec.bound == bound, f"got {rec.describe()}, expected >= {bound}")
        check_certificate(rec.certificate, m, limit, t)
        check(rec.certificate.graph == expected, "certificate differs from the golden record")

    return Op(f"find_br_m m={m} t={t} limit={limit}", metric, run)


def fixture_op(name: str, graph: BipartiteGraph, t: int) -> Op:
    """A good coloring verifies and survives the witness-file round trip unchanged."""

    def run(tally: Counter) -> None:
        cert = check_good(graph, t)
        text = witnesses.serialize_witness(cert)
        back = witnesses.parse_witness(text)
        check(back.graph == graph and back.valid, "witness file round trip changed the coloring")
        check(witnesses.serialize_witness(back) == text, "witness serialization is not canonical")

    return Op(name, None, run)


def corrupted_op(name: str, graph: BipartiteGraph, t: int) -> Op:
    """A copy with one edge flipped must be flagged invalid."""

    def run(tally: Counter) -> None:
        tally["injected"] += 1
        cert = witnesses.verify_good_coloring(graph, t)
        check(not cert.valid, "corrupted copy not flagged")
        tally["invalid_detected"] += 1
        check(core.find_biclique(graph, K22) is not None, "no K_{2,2} found in the corrupted copy")

    return Op(name, None, run)


def export_op(m: int, n: int, t: int, golden: dict, metric: str | None = None) -> Op:
    """The DIMACS text must match the golden digest, byte count and clause count."""
    formula = cnf.CnfInstance(m, n, t)

    def run(tally: Counter) -> None:
        sink = HashingSink()
        cnf.write_dimacs(formula, sink)
        digest = sink.hexdigest()
        clauses = sink.lines - 1
        tally["clauses_emitted"] += clauses
        tally["bytes_emitted"] += sink.bytes
        check(sink.first_line == f"p cnf {m * n} {golden['clauses']}", f"header {sink.first_line!r}")
        check(clauses == golden["clauses"], f"{clauses} clauses, expected {golden['clauses']}")
        check(sink.bytes == golden["bytes"], f"{sink.bytes} bytes, expected {golden['bytes']}")
        check(digest == golden["sha256"], f"digest {digest}, expected {golden['sha256']}")

    return Op(f"write_dimacs {m}x{n} t={t}", metric, run)


def model_check_op(graph: BipartiteGraph, t: int, metric: str | None = None) -> Op:
    """The model of a good coloring satisfies every clause and decodes back to it."""
    formula = cnf.CnfInstance(graph.m, graph.n, t)
    model = cnf.model_from_graph(formula, graph)

    def run(tally: Counter) -> None:
        check(cnf.satisfies(formula, model), "model of a good coloring fails a clause")
        tally["clauses_checked"] += formula.num_clauses  # satisfies walks them all when True
        cert = cnf.decode_model(formula, model, strict=True)
        check(cert.valid and cert.graph == graph, "decoded model differs from the coloring")

    return Op(f"model check {graph.m}x{graph.n} t={t}", metric, run)


def registry_op(entries, golden: dict) -> Op:
    """The known-values registry agrees with every expectation the golden record holds."""
    values = {(e.t, e.m): e.value for e in entries if e.left == 2}

    def run(tally: Counter) -> None:
        for row in golden["scan_values"]:
            check(values.get((row["t"], row["m"])) == row["value"], f"registry disagrees on {row}")
        for row in golden["exhaust"]:
            value = values.get((row["t"], row["m"]))
            check(value is not None and (value <= row["n"]) == (row["verdict"] == ARROWS), f"registry disagrees on {row}")
        b = golden["scan_bound"]
        value = values.get((b["t"], b["m"]))
        check(value is not None and value >= b["bound"], f"registry disagrees on {b}")

    return Op("registry", None, run)


# --- workloads ------------------------------------------------------------


def probe_ops(rng: random.Random, golden: dict, entries) -> list[Op]:
    small = relabel(BipartiteGraph.from_rows(7, 8, golden["coloring_7x8_t3"]), rng)
    fixtures = {"6x39": relabel(witnesses.witness_6x39(), rng), "8x29": relabel(witnesses.witness_8x29(), rng)}
    ops = [
        registry_op(entries, golden),
        arrows_op(7, 8, 3, NOT_ARROWS),
        arrows_op(7, 9, 3, ARROWS),
        export_op(7, 8, 3, golden["dimacs"]["7x8_t3"]),
        model_check_op(small, 3),
    ]
    ops += [fixture_op(f"fixture {label}", g, 5) for label, g in fixtures.items()]
    ops += [
        corrupted_op(f"corrupted {label} #{k + 1}", corrupt(g, rng), 5)
        for label, g in fixtures.items()
        for k in range(CORRUPTED_COPIES)
    ]
    return ops


def build(name: str, seed: int, golden: dict, entries) -> Workload:
    """The workload's operations, inputs drawn from ``seed``."""
    rng = random.Random(seed)
    ops = probe_ops(rng, golden, entries)
    rates = {}
    if name == "exhaust":
        ops += [
            arrows_op(r["m"], r["n"], r["t"], r["verdict"], f"arrows_{r['m']}x{r['n']}_t{r['t']}_s")
            for r in golden["exhaust"]
        ]
    elif name == "scan":
        rows = list(golden["scan_values"])
        rng.shuffle(rows)
        ops += [scan_value_op(r["m"], r["t"], r["value"], "values_t3t4_s") for r in rows]
        b = golden["scan_bound"]
        certificate = BipartiteGraph.from_rows(b["m"], b["limit"], b["certificate"])
        ops.append(scan_bound_op(b["m"], b["t"], b["limit"], b["bound"], certificate, "scan_m6_t5_s"))
    elif name == "cnf":
        export = golden["dimacs"]["7x20_t5"]
        rates = {"export_clauses_per_s": ("export_s", export["clauses"])}
        coloring = relabel(restrict(witnesses.witness_6x39(), golden["model_check_columns"], rng), rng)
        ops += [
            export_op(7, 20, 5, export, "export_s"),
            model_check_op(coloring, 5, "model_check_s"),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, tuple(ops), rates)


def setup(name: str, seed: int, recorder: Recorder):
    """Build the table and the workload's inputs; returns (workload, table entries)."""
    recorder.install(MODULES)
    try:
        with recorder.operation("setup"):
            entries = table.build_table()
            workload = build(name, seed, load_golden(), entries)
    finally:
        recorder.uninstall()
    return workload, entries


def table_counts(entries) -> dict:
    return {
        "rows": len(entries),
        "verified_rows": sum(e.lower_provenance == VERIFIED_WITNESS for e in entries),
    }


def run_pass(workload: Workload, recorder: Recorder) -> PassResult:
    """Run every operation once; a failed op is recorded and the pass goes on."""
    tally: Counter = Counter()
    op_walls: list[float] = []
    op_scaled: list[float] = []
    failures: list[str] = []
    gauge = Gauge()
    if not recorder.tracing:  # a traced pass keeps the loop out of its spans
        recorder.after_decision = lambda: gauge.split(SPLIT_S)
    recorder.install(MODULES)
    try:
        for op in workload.ops:
            first = len(gauge.segments)
            with recorder.operation(op.name):
                try:
                    op.run(tally)
                except GateFailure as exc:
                    failures.append(f"{op.name}: {exc}")
                except Exception:  # any crash is a failed operation; the pass goes on
                    failures.append(f"{op.name}: {traceback.format_exc()}")
            gauge.split()
            op_walls.append(sum(gauge.segments[first:]))
            op_scaled.append(gauge.scaled_sum(first, len(gauge.segments)))
    finally:
        recorder.uninstall()
    return PassResult(
        op_walls=op_walls,
        op_scaled=op_scaled,
        segments=len(gauge.segments),
        tally=tally,
        attempted=len(workload.ops),
        failures=failures,
        search=search_counts(recorder.decisions),
        spans=recorder.spans,
    )
