"""Tests of the benchmark's own gate, inputs and tracing, on tiny instances.

    PYTHONPATH=src python -m pytest -q bench/tests

Faults are injected through the benchmark's inputs and expectations only.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from biramsey import search, table, witnesses  # noqa: E402
from biramsey.core import BipartiteGraph  # noqa: E402
from biramsey.search import ARROWS, NOT_ARROWS  # noqa: E402

import reference  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Recorder, self_times  # noqa: E402

GOLDEN = wl.load_golden()
SMALL = BipartiteGraph.from_rows(7, 8, GOLDEN["coloring_7x8_t3"])


def run(*ops, tracing=False):
    return wl.run_pass(wl.Workload("tiny", tuple(ops)), Recorder(tracing=tracing))


def test_gate_passes_correct_outputs():
    rng = random.Random(3)
    result = run(
        wl.registry_op(table.build_table(), GOLDEN),
        wl.scan_value_op(4, 3, 15),
        wl.arrows_op(7, 8, 3, NOT_ARROWS),
        wl.arrows_op(7, 9, 3, ARROWS),
        wl.export_op(7, 8, 3, GOLDEN["dimacs"]["7x8_t3"]),
        wl.model_check_op(wl.relabel(SMALL, rng), 3),
        wl.fixture_op("fixture", wl.relabel(SMALL, rng), 3),
        wl.corrupted_op("corrupted", wl.corrupt(SMALL, rng), 3),
    )
    assert result.failures == []
    assert result.attempted == 8
    assert result.tally["invalid_detected"] == result.tally["injected"] == 1


@pytest.mark.parametrize(
    "op, message",
    [
        (wl.scan_value_op(4, 3, 14), "expected 14"),
        (wl.arrows_op(7, 9, 3, NOT_ARROWS), "verdict ARROWS, expected NOT_ARROWS"),
        (wl.arrows_op(7, 8, 3, ARROWS), "verdict NOT_ARROWS, expected ARROWS"),
    ],
)
def test_gate_catches_wrong_value(op, message):
    result = run(op)
    assert len(result.failures) == 1 and message in result.failures[0]


def test_gate_catches_invalid_witness():
    broken = wl.corrupt(SMALL, random.Random(1))
    result = run(wl.fixture_op("broken fixture", broken, 3), wl.model_check_op(broken, 3))
    assert len(result.failures) == 2
    assert "fails re-verification" in result.failures[0]
    assert "model of a good coloring fails a clause" in result.failures[1]


def test_gate_catches_certificate_that_differs_from_golden():
    found = search.find_br_m(4, 3, 14).certificate.graph
    other = wl.relabel(found, random.Random(2))
    assert other != found
    assert run(wl.scan_bound_op(4, 3, 14, 15, found)).failures == []
    result = run(wl.scan_bound_op(4, 3, 14, 15, other))
    assert len(result.failures) == 1 and "differs from the golden record" in result.failures[0]


def test_gate_catches_unflagged_corrupted_copy():
    result = run(wl.corrupted_op("not really corrupted", SMALL, 3))
    assert len(result.failures) == 1 and "not flagged" in result.failures[0]
    assert result.tally["injected"] == 1 and result.tally["invalid_detected"] == 0


@pytest.mark.parametrize("field, value", [("sha256", "0" * 64), ("bytes", 64224), ("clauses", 2547)])
def test_gate_catches_export_mismatch(field, value):
    golden = dict(GOLDEN["dimacs"]["7x8_t3"], **{field: value})
    result = run(wl.export_op(7, 8, 3, golden))
    assert len(result.failures) == 1


def test_gate_counts_exceptions_as_failures():
    result = run(wl.arrows_op(0, 4, 3, ARROWS))  # ArrowingInstance raises UsageError
    assert len(result.failures) == 1 and "UsageError" in result.failures[0]


def test_registry_disagreement_is_a_failure():
    golden = json.loads(json.dumps(GOLDEN))
    golden["scan_values"][0]["value"] += 1
    result = run(wl.registry_op(table.build_table(), golden))
    assert len(result.failures) == 1 and "registry disagrees" in result.failures[0]


@pytest.mark.parametrize("seed", range(5))
def test_seeded_inputs_are_deterministic_and_keep_validity(seed):
    for fixture in (witnesses.witness_6x39(), witnesses.witness_8x29(), SMALL):
        t = 3 if fixture is SMALL else 5
        relabelled = wl.relabel(fixture, random.Random(seed))
        assert relabelled == wl.relabel(fixture, random.Random(seed))
        assert witnesses.verify_good_coloring(relabelled, t).valid
        bad = wl.corrupt(relabelled, random.Random(seed))
        assert bad.edge_count() == fixture.edge_count() + 1
        assert not witnesses.verify_good_coloring(bad, t).valid


@pytest.mark.parametrize("seed", range(3))
def test_restricted_fixture_stays_good(seed):
    fixture = witnesses.witness_6x39()
    part = wl.restrict(fixture, GOLDEN["model_check_columns"], random.Random(seed))
    assert part == wl.restrict(fixture, GOLDEN["model_check_columns"], random.Random(seed))
    assert (part.m, part.n) == (6, GOLDEN["model_check_columns"])
    assert witnesses.verify_good_coloring(part, 5).valid


def test_seed_picks_scan_order_but_not_the_operations():
    entries = table.build_table()
    orders = {tuple(op.name for op in wl.build("scan", s, GOLDEN, entries).ops) for s in range(4)}
    assert len(orders) > 1
    assert len({frozenset(order) for order in orders}) == 1


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    entries = table.build_table()
    setup_recorder = Recorder(tracing=True)
    wl.setup("cnf", 0, setup_recorder)
    tiny = (wl.arrows_op(7, 9, 3, ARROWS), wl.model_check_op(SMALL, 3))
    plain, traced = run(*tiny), run(*tiny, tracing=True)
    end_to_end = {"setup_s", *worker.end_to_end([plain])}
    per_layer = {*worker.layer_metrics(traced, setup_recorder.spans, entries), "trace.overhead_s"}
    assert end_to_end == {m["name"] for m in spec["end_to_end"]}
    assert per_layer == {m["name"] for m in spec["per_layer"]}


def test_every_workload_builds():
    entries = table.build_table()
    timings = {
        "exhaust": ["arrows_6x23_t4_s", "arrows_8x19_t4_s", "arrows_8x20_t4_s"],
        "scan": ["scan_m6_t5_s", "values_t3t4_s"],
        "cnf": ["export_s", "model_check_s"],
    }
    for name in wl.WORKLOADS:
        assert wl.build(name, 0, GOLDEN, entries).timings() == timings[name]
    with pytest.raises(ValueError):
        wl.build("nope", 0, GOLDEN, entries)


def test_traced_and_untraced_passes_agree_and_spans_nest():
    ops = (wl.scan_value_op(5, 3, 12), wl.arrows_op(7, 9, 3, ARROWS))
    original = search.arrows
    plain = run(*ops)
    traced = run(*ops, tracing=True)
    assert search.arrows is original  # wrappers are removed after a pass
    assert plain.failures == traced.failures == []
    assert plain.search == traced.search
    assert plain.search["decisions"] == traced.search["decisions"] > 2
    assert plain.spans == []

    spans = traced.spans
    by_id = {s["id"]: s for s in spans}
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == [op.name for op in ops]
    for s in spans:
        assert s["end"] >= s["start"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["op"] == s["op"]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    (scan,) = [s for s in spans if s["name"] == "find_br_m"]
    scan_children = [s for s in spans if s["parent"] == scan["id"] and s["name"] == "arrows"]
    assert len(scan_children) >= 2 and all("stats" in s for s in scan_children)
    total_self = sum(self_times(spans).values())
    assert total_self == pytest.approx(sum(s["end"] - s["start"] for s in roots))


def test_hashing_sink_matches_plain_text():
    import hashlib
    import io

    from biramsey import cnf

    formula = cnf.CnfInstance(4, 5, 2)
    text = io.StringIO()
    cnf.write_dimacs(formula, text)
    sink = wl.HashingSink()
    cnf.write_dimacs(formula, sink)
    data = text.getvalue().encode("ascii")
    assert sink.hexdigest() == hashlib.sha256(data).hexdigest()
    assert (sink.bytes, sink.lines) == (len(data), formula.num_clauses + 1)
    assert sink.first_line == f"p cnf 20 {formula.num_clauses}"


def test_run_refuses_a_directory_without_the_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exhaust", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_scaling_undoes_a_uniform_slowdown():
    ref = reference.REFERENCE_S
    assert reference.scaled(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
    assert reference.scaled(3.0, ref, 3 * ref) == pytest.approx(1.5)
    assert reference.scaled(3.0, ref, ref) == pytest.approx(3.0)


def test_untraced_pass_splits_long_scans_at_decisions(monkeypatch):
    monkeypatch.setattr(wl, "SPLIT_S", 0.0)  # cut after every decision
    ops = (wl.scan_value_op(5, 3, 12), wl.arrows_op(7, 9, 3, ARROWS))
    plain, traced = run(*ops), run(*ops, tracing=True)
    assert plain.failures == traced.failures == []
    for p in (plain, traced):
        assert len(p.op_walls) == len(p.op_scaled) == len(ops)
        assert all(w > 0 and s > 0 for w, s in zip(p.op_walls, p.op_scaled))
    # find_br_m(5, 3, 13) decides n = 3..12; each decision closes a segment
    # in the untraced pass, which does not change the search counts.
    assert plain.search == traced.search and plain.search["decisions"] == 11
    assert plain.segments == 11 + len(ops) and traced.segments == len(ops)


def test_gauge_keeps_short_calls_together():
    gauge = reference.Gauge()
    gauge.split(min_s=60.0)
    assert gauge.segments == [] and len(gauge.refs) == 1
    gauge.split()
    gauge.split()
    assert len(gauge.segments) == 2 and len(gauge.refs) == 3
    assert gauge.scaled_sum(0, 2) > 0

