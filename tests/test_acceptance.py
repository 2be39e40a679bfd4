"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import hashlib
import time
from contextlib import contextmanager
from itertools import combinations, islice

import numpy as np

from biramsey.cli import main as cli_main
from biramsey.cnf import encode_cnf, model_from_graph, satisfies, solve_with_toy_dpll
from biramsey.search import (
    ARROWS,
    NOT_ARROWS,
    PRUNE_RULES,
    ArrowingInstance,
    SearchConfig,
    arrows,
    find_br_m,
)
from biramsey.table import build_table
from biramsey.witnesses import (
    EXACT,
    TRUSTED_LITERATURE,
    VERIFIED_WITNESS,
    parse_witness,
    serialize_witness,
    star_witness,
    verify_good_coloring,
    witness_6x39,
    witness_8x29,
)

from oracles import arrows_oracle, arrows_oracle_row_canonical


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_criterion_1_witness_verification(tmp_path, capsys):
    with criterion(1, "witness verification"):
        # 6x39: degree 9, all 15 intersections 1, every 5-row union covers 35/39
        path6 = tmp_path / "w6x39.txt"
        run_cli(capsys, "fixtures", "emit", "witness_6x39", str(path6))
        start = time.perf_counter()
        code, out = run_cli(capsys, "verify", str(path6))
        elapsed6 = time.perf_counter() - start
        assert code == 0
        assert "max degree: 9" in out
        assert "max pairwise intersection: 1" in out
        assert "min pairwise intersection: 1" in out
        assert "row pairs: 15" in out
        assert "5-row coverage: min 35, max 35 (of 39 columns, 6 subsets)" in out
        assert "verdict: VALID" in out
        assert elapsed6 < 1.0

        # 8x29: all 28 intersections 1, coverages exactly 25 and 26
        path8 = tmp_path / "w8x29.txt"
        run_cli(capsys, "fixtures", "emit", "witness_8x29", str(path8))
        start = time.perf_counter()
        code, out = run_cli(capsys, "verify", str(path8))
        elapsed8 = time.perf_counter() - start
        assert code == 0
        assert "max pairwise intersection: 1" in out
        assert "min pairwise intersection: 1" in out
        assert "row pairs: 28" in out
        assert "5-row coverage: min 25, max 26 (of 29 columns, 56 subsets)" in out
        assert "verdict: VALID" in out
        assert elapsed8 < 1.0

        # the 25/26 split is exactly by whether row 1 participates
        g = witness_8x29()
        for subset in combinations(range(8), 5):
            union = 0
            for i in subset:
                union |= g.row_masks[i]
            assert union.bit_count() == (26 if 0 in subset else 25)


def test_criterion_2_nonexistence(capsys):
    with criterion(2, "nonexistence via star construction"):
        start = time.perf_counter()
        for m in (2, 3, 4, 5):
            for n in range(1, 101):
                assert verify_good_coloring(star_witness(m, n), 5).valid, (m, n)
        code, out = run_cli(capsys, "brfind", "-m", "5", "-t", "5")
        assert code == 0
        assert "NONEXISTENT" in out
        assert time.perf_counter() - start < 1.0


def test_criterion_3_oracle_equivalence():
    with criterion(3, "oracle equivalence for t=2 up to 5x5"):
        start = time.perf_counter()
        checked = 0
        for m in range(1, 6):
            for n in range(1, 6):
                if (m, n) == (5, 5):
                    want = arrows_oracle_row_canonical(5, 5, 2)
                else:
                    want = arrows_oracle(m, n, 2)
                got = arrows(ArrowingInstance(m, n, 2)).verdict
                assert got == (ARROWS if want else NOT_ARROWS), (m, n)
                checked += 1
        assert checked == 25
        assert arrows(ArrowingInstance(4, 4, 2)).verdict == NOT_ARROWS
        assert arrows(ArrowingInstance(5, 5, 2)).verdict == ARROWS
        assert time.perf_counter() - start < 600.0


def test_criterion_4_pruning_ablation():
    with criterion(4, "pruning soundness ablation"):
        for m in range(1, 6):
            for n in range(1, 6):
                reference = arrows(ArrowingInstance(m, n, 2)).verdict
                for rule in PRUNE_RULES:
                    cfg = SearchConfig(disabled_rules=frozenset({rule}))
                    got = arrows(ArrowingInstance(m, n, 2), cfg).verdict
                    assert got == reference, (m, n, rule)


def _degree_cap_lemma_holds(m: int, n: int, t: int) -> bool:
    """Exhaustive: every C4-free graph with a row of degree 2t has K_{t,t}
    in its complement.  Checks all 2^(m*n) graphs in vectorized chunks."""
    full = (1 << n) - 1
    pop = np.array([bin(x).count("1") for x in range(1 << n)], dtype=np.int64)
    subsets = list(combinations(range(m), t))
    chunk = 1 << 20
    for lo in range(0, 1 << (m * n), chunk):
        codes = np.arange(lo, min(lo + chunk, 1 << (m * n)), dtype=np.int64)
        rows = [(codes >> (i * n)) & full for i in range(m)]
        relevant = np.zeros(codes.shape, dtype=bool)
        for i in range(m):
            relevant |= pop[rows[i]] >= 2 * t
        for i, j in combinations(range(m), 2):
            relevant &= pop[rows[i] & rows[j]] <= 1
        if not relevant.any():
            continue
        has_ktt = np.zeros(codes.shape, dtype=bool)
        for subset in subsets:
            inter = np.full(codes.shape, full, dtype=np.int64)
            for i in subset:
                inter &= rows[i] ^ full
            has_ktt |= pop[inter] >= t
        if (relevant & ~has_ktt).any():
            return False
    return True


def test_criterion_5_degree_cap_lemma_validation():
    with criterion(5, "degree-cap lemma validation"):
        start = time.perf_counter()
        assert _degree_cap_lemma_holds(3, 4, 2)
        assert _degree_cap_lemma_holds(4, 6, 3)
        assert time.perf_counter() - start < 300.0


def test_criterion_6_desk_scale_regression():
    with criterion(6, "desk-scale value regression (m=7, t=3)"):
        start = time.perf_counter()
        record = find_br_m(7, 3, 12)
        elapsed = time.perf_counter() - start
        assert record.status == EXACT
        assert record.value == 9
        assert record.certificate is not None
        assert record.certificate.valid
        assert record.certificate.graph.n == 8
        assert elapsed < 1800.0


def test_criterion_7_declared_substitutes(capsys):
    with criterion(7, "declared-unreachable upper bounds: substitutes"):
        # (a) witness injection returns NOT_ARROWS instantly
        start = time.perf_counter()
        out6 = arrows(ArrowingInstance(6, 39, 5), seed=witness_6x39())
        out8 = arrows(ArrowingInstance(8, 29, 5), seed=witness_8x29())
        assert out6.verdict == NOT_ARROWS and out8.verdict == NOT_ARROWS
        assert out6.stats.attempts == 0 and out8.stats.attempts == 0
        assert time.perf_counter() - start < 1.0

        # (b) CNF export for (7,30,5): exact counts, and the pinned bytes, so
        # any change to the output fails, not only a run-to-run difference
        cnf = encode_cnf(ArrowingInstance(7, 30, 5))
        assert cnf.num_vars == 210
        assert cnf.num_clauses == 21 * 435 + 21 * 142506
        h = hashlib.sha256()
        count = size = 0
        lines = cnf.dimacs_lines()
        while chunk := list(islice(lines, 4096)):
            data = ("\n".join(chunk) + "\n").encode("ascii")
            h.update(data)
            size += len(data)
            count += len(chunk)
        assert count == cnf.num_clauses + 1
        assert size == 266_953_428
        assert h.hexdigest() == (
            "bb17a76b1c438b034e4ca4b39fcf581cf10389b419406ee60aa187112e5dac67"
        )

        # (c) table keeps those upper bounds labelled trusted-literature
        entries = {(e.left, e.t, e.m): e for e in build_table()}
        for m in (6, 7, 8):
            entry = entries[(2, 5, m)]
            assert entry.lower_provenance == VERIFIED_WITNESS
            assert entry.upper_provenance == TRUSTED_LITERATURE


def check_fixture_model(graph, t):
    """The fixture's model satisfies its whole formula, and fails it once one
    added edge closes a C4; the covering clauses are also checked engine-free."""
    cnf = encode_cnf(ArrowingInstance(graph.m, graph.n, t))
    model = model_from_graph(cnf, graph)
    assert satisfies(cnf, model)
    masks = graph.row_masks
    row_unions = {}
    for rows in combinations(range(graph.m), t):
        union = 0
        for i in rows:
            union |= masks[i]
        row_unions[rows] = union
    ok = True
    for cols in combinations(range(graph.n), t):
        cmask = 0
        for c in cols:
            cmask |= 1 << c
        for rows, union in row_unions.items():
            if not union & cmask:
                ok = False
    assert ok
    # no-K_{2,2} clauses hold because the coloring is C4-free
    for i, j in combinations(range(graph.m), 2):
        assert (masks[i] & masks[j]).bit_count() <= 1
    # rows 0 and 1 share one column; give row 1 another of row 0's columns
    extra = (masks[0] & ~masks[1]).bit_length() - 1
    assert (masks[0] & masks[1]).bit_count() == 1 and extra >= 0
    closed = list(model)
    closed[cnf.var(1, extra) - 1] = True
    assert not satisfies(cnf, closed)


def test_criterion_7_witness_model_satisfies_formula():
    # supporting check for the same criterion: the 8x29 coloring, written as a
    # model of the (8,29,5) formula, satisfies every clause
    with criterion(7, "8x29 model satisfies the (8,29,5) formula"):
        check_fixture_model(witness_8x29(), 5)


def test_criterion_7_witness_6x39_model_satisfies_formula():
    with criterion(7, "6x39 model satisfies the (6,39,5) formula"):
        check_fixture_model(witness_6x39(), 5)


def test_criterion_8_roundtrip_and_determinism(tmp_path, capsys):
    with criterion(8, "round-trip and determinism"):
        # serialize/parse round-trips byte-identically
        for graph, t in ((witness_6x39(), 5), (witness_8x29(), 5)):
            text = serialize_witness(verify_good_coloring(graph, t))
            again = serialize_witness(parse_witness(text))
            assert again == text

        outcome = arrows(ArrowingInstance(4, 6, 2))
        assert outcome.verdict == NOT_ARROWS
        text = serialize_witness(outcome.certificate)
        assert serialize_witness(parse_witness(text)) == text

        # identical verdicts and witnesses across repeats and thread widths
        for m, n, t in ((4, 4, 2), (5, 5, 2), (7, 8, 3)):
            reference = arrows(ArrowingInstance(m, n, t))
            for threads in (1, 2, 4):
                for _ in range(2):
                    cfg = SearchConfig(threads=threads)
                    out = arrows(ArrowingInstance(m, n, t), cfg)
                    assert out.verdict == reference.verdict
                    if reference.certificate is not None:
                        assert (
                            out.certificate.graph.row_masks
                            == reference.certificate.graph.row_masks
                        )

        # identical DIMACS bytes across runs
        for attempt in range(2):
            code, _out = run_cli(
                capsys, "export-cnf", "-m", "4", "-n", "4", "-t", "2",
                "-o", str(tmp_path / "a.cnf"),
            )
            assert code == 0
            (tmp_path / f"copy{attempt}.cnf").write_bytes(
                (tmp_path / "a.cnf").read_bytes()
            )
        assert (tmp_path / "copy0.cnf").read_bytes() == (tmp_path / "copy1.cnf").read_bytes()


def test_bonus_value_m6_t5_computed_end_to_end():
    # beyond the declared substitutes: the full n-scan for m=6, t=5 completes
    # at desk scale (~1 s), pinning the value 40 with a verified witness at
    # n=39 that is exactly the bundled fixture.  The m=7 bounds, arrows 7x30
    # and 7x29 at t=5, are in test_search.py's TestArrows.
    record = find_br_m(6, 5, 45, SearchConfig(time_budget=900.0))
    assert record.status == EXACT
    assert record.value == 40
    assert record.certificate is not None and record.certificate.valid
    assert record.certificate.graph == witness_6x39()

    # cross-check: toy DPLL agrees with the search and the t=2 oracle
    sat, cert = solve_with_toy_dpll(encode_cnf(ArrowingInstance(4, 4, 2)))
    assert sat and cert.valid
    assert not arrows_oracle(4, 4, 2)
