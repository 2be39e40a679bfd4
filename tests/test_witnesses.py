"""Fixture contents, good-coloring verification, witness file format."""

import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biramsey.cli import main
from biramsey.core import (
    BicliqueSpec,
    BipartiteGraph,
    UsageError,
    complement,
    contains_biclique,
    find_biclique,
)
from biramsey.witnesses import (
    EXACT,
    NONEXISTENT,
    SEARCHED,
    VERIFIED_WITNESS,
    KnownValueRecord,
    WitnessParseError,
    parse_witness,
    serialize_witness,
    star_witness,
    verify_good_coloring,
    witness_6x39,
    witness_8x29,
)


def labels(row: frozenset[int]) -> set[int]:
    return {c + 1 for c in row}


class TestWitness6x39:
    def test_shape(self):
        g = witness_6x39()
        assert (g.m, g.n) == (6, 39)
        assert g.edge_count() == 54

    def test_row_contents(self):
        g = witness_6x39()
        assert labels(g.rows[0]) == set(range(1, 10))
        assert labels(g.rows[5]) == {5, 13, 20, 26, 31, 36, 37, 38, 39}

    def test_full_union_covers_everything(self):
        g = witness_6x39()
        union = 0
        for mask in g.row_masks:
            union |= mask
        assert union.bit_count() == 39

    def test_valid_for_t5(self):
        cert = verify_good_coloring(witness_6x39(), 5)
        assert cert.valid
        assert cert.report.max_degree == 9
        assert cert.report.min_pair_intersection == 1
        assert cert.report.max_pair_intersection == 1
        assert cert.report.pair_count == 15
        assert cert.report.min_coverage == 35
        assert cert.report.max_coverage == 35


class TestWitness8x29:
    def test_row_contents(self):
        g = witness_8x29()
        assert labels(g.rows[0]) == set(range(1, 9))
        assert labels(g.rows[1]) == {1, 9, 10, 11, 12, 13, 14}

    def test_pairwise_intersections(self):
        g = witness_8x29()
        masks = g.row_masks
        assert all(
            (masks[i] & masks[j]).bit_count() == 1
            for i, j in combinations(range(8), 2)
        )

    def test_valid_for_t5(self):
        cert = verify_good_coloring(witness_8x29(), 5)
        assert cert.valid
        assert cert.report.pair_count == 28
        assert (cert.report.min_coverage, cert.report.max_coverage) == (25, 26)


class TestStarWitness:
    def test_single_edge(self):
        g = star_witness(1, 1)
        assert g.row_masks == (1,)

    def test_5x100_valid_for_t5(self):
        assert verify_good_coloring(star_witness(5, 100), 5).valid

    def test_6x10_invalid_for_t5(self):
        cert = verify_good_coloring(star_witness(6, 10), 5)
        assert not cert.valid
        assert cert.right_violation is not None
        rows, cols = cert.right_violation
        assert 0 not in rows  # the full row cannot be part of a complement biclique

    def test_validity_formula_all_small(self):
        # valid for t exactly when m - 1 < t or n < t
        for m in range(1, 13):
            for n in range(1, 13):
                g = star_witness(m, n)
                for t in range(1, 7):
                    expected = (m - 1 < t) or (n < t)
                    assert verify_good_coloring(g, t).valid == expected, (m, n, t)


class TestVerifyGoodColoring:
    def test_empty_5x5_invalid_with_full_sets(self):
        cert = verify_good_coloring(BipartiteGraph.empty(5, 5), 5)
        assert not cert.valid
        assert cert.left_violation is None
        assert cert.right_violation == ((0, 1, 2, 3, 4), (0, 1, 2, 3, 4))

    def test_left_violation_named(self):
        g = BipartiteGraph.from_rows(3, 3, [[0, 1], [0, 1], [2]])
        cert = verify_good_coloring(g, 3)
        assert not cert.valid
        rows, cols = cert.left_violation
        assert all(g.row_masks[i] >> c & 1 for i in rows for c in cols)

    def test_report_matches_direct_recomputation(self):
        rng = random.Random(5)
        for _ in range(100):
            m, n, t = rng.randint(1, 6), rng.randint(1, 8), rng.randint(1, 4)
            g = BipartiteGraph(m, n, tuple(rng.getrandbits(n) for _ in range(m)))
            cert = verify_good_coloring(g, t)
            valid_direct = not contains_biclique(g, BicliqueSpec(2, 2)) and not any(
                n - _union(g, s).bit_count() >= t for s in combinations(range(m), t)
            )
            assert cert.valid == valid_direct
            # the violations are the embeddings the reference search finds
            assert cert.left_violation == find_biclique(g, BicliqueSpec(2, 2))
            assert cert.right_violation == find_biclique(complement(g), BicliqueSpec(t, t))

    def test_t_must_be_positive(self):
        with pytest.raises(UsageError):
            verify_good_coloring(witness_6x39(), 0)

    @pytest.mark.parametrize(
        "row, code, expected",
        [
            ("", 2, "K_{1,1} found in the complement: rows 1 columns 1\n"),
            (" " + " ".join(map(str, range(1, 1_000_001))), 0, "verdict: VALID\n"),
        ],
        ids=["empty", "full"],
    )
    def test_wide_empty_row_reported_in_linear_time(
        self, tmp_path, capsys, row, code, expected
    ):
        # a million-column row: reading it, or naming the first column its
        # complement holds, may not take time quadratic in the row's width
        path = tmp_path / "wide.txt"
        path.write_text(f"biramsey-witness v1\nm=1 n=1000000 t=1\n1:{row}\n")
        start = time.perf_counter()
        got = main(["verify", str(path)])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert got == code
        assert expected in out
        assert elapsed < 10, elapsed


def _union(g, subset):
    u = 0
    for i in subset:
        u |= g.row_masks[i]
    return u


class TestSerialization:
    def test_serialize_header_and_first_row(self):
        text = serialize_witness(verify_good_coloring(witness_6x39(), 5))
        lines = text.split("\n")
        assert lines[0] == "biramsey-witness v1"
        assert lines[1] == "m=6 n=39 t=5"
        assert lines[2] == "1: 1 2 3 4 5 6 7 8 9"

    def test_roundtrip_fixtures(self):
        for g, t in ((witness_6x39(), 5), (witness_8x29(), 5), (star_witness(4, 9), 5)):
            cert = verify_good_coloring(g, t)
            back = parse_witness(serialize_witness(cert))
            assert back.graph == g
            assert back.t == t

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_roundtrip_random(self, data):
        m = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 10))
        t = data.draw(st.integers(1, 5))
        masks = tuple(data.draw(st.integers(0, (1 << n) - 1)) for _ in range(m))
        cert = verify_good_coloring(BipartiteGraph(m, n, masks), t)
        text = serialize_witness(cert)
        back = parse_witness(text)
        assert back.graph == cert.graph
        # canonical form is a fixed point
        assert serialize_witness(back) == text

    def test_empty_row_line(self):
        g = BipartiteGraph.from_rows(2, 3, [[1], []])
        text = serialize_witness(verify_good_coloring(g, 2))
        assert "\n2:\n" in text
        assert parse_witness(text).graph == g

    def test_unsorted_columns_accepted_and_canonicalized(self):
        text = "biramsey-witness v1\nm=1 n=5 t=1\n1: 3 1 2\n"
        cert = parse_witness(text)
        assert cert.graph.rows[0] == frozenset({0, 1, 2})
        assert "1: 1 2 3" in serialize_witness(cert)

    def test_trailing_comments_allowed(self):
        text = "biramsey-witness v1\nm=1 n=2 t=1\n1: 1\n# a remark\n\n"
        assert parse_witness(text).graph.row_masks == (1,)


class TestParseErrors:
    def test_bad_header(self):
        with pytest.raises(WitnessParseError) as err:
            parse_witness("nonsense\nm=1 n=1 t=1\n1: 1\n")
        assert err.value.line == 1

    def test_bad_param_line(self):
        with pytest.raises(WitnessParseError) as err:
            parse_witness("biramsey-witness v1\nm=1 n=1\n1: 1\n")
        assert err.value.line == 2

    def test_out_of_range_label_names_line(self):
        g = witness_6x39()
        text = serialize_witness(verify_good_coloring(g, 5))
        broken = text.replace("1: 1 2 3 4 5 6 7 8 9", "1: 1 2 3 4 5 6 7 8 40")
        with pytest.raises(WitnessParseError) as err:
            parse_witness(broken)
        assert err.value.line == 3
        assert "40" in str(err.value)

    def test_duplicate_column(self):
        with pytest.raises(WitnessParseError) as err:
            parse_witness("biramsey-witness v1\nm=1 n=4 t=1\n1: 2 2\n")
        assert err.value.line == 3

    def test_wrong_row_index(self):
        with pytest.raises(WitnessParseError) as err:
            parse_witness("biramsey-witness v1\nm=2 n=2 t=1\n1: 1\n3: 2\n")
        assert err.value.line == 4

    def test_truncated(self):
        with pytest.raises(WitnessParseError) as err:
            parse_witness("biramsey-witness v1\nm=3 n=2 t=1\n1: 1\n")
        assert err.value.line == 4

    def test_junk_after_rows(self):
        with pytest.raises(WitnessParseError) as err:
            parse_witness("biramsey-witness v1\nm=1 n=2 t=1\n1: 1\ngarbage\n")
        assert err.value.line == 4

    # int() alone would read "1_0" as 10 and "+3" or the Arabic-Indic "٣" as 3
    @pytest.mark.parametrize("token", ["x", "1_0", "+3", "\u0663"])
    def test_non_integer_label(self, token):
        with pytest.raises(WitnessParseError) as err:
            parse_witness(f"biramsey-witness v1\nm=1 n=20 t=1\n1: {token}\n")
        assert err.value.line == 3
        assert "bad column label" in str(err.value)

    def test_leading_zeros_accepted(self):
        text = "biramsey-witness v1\nm=1 n=5 t=1\n1: 03\n"
        assert parse_witness(text).graph.row_masks == (0b100,)

    def test_non_ascii_row_index(self):
        with pytest.raises(WitnessParseError) as err:
            parse_witness("biramsey-witness v1\nm=1 n=2 t=1\n\u0661: 1\n")
        assert err.value.line == 3

    # int() refuses more than 4,300 digits (CPython's default limit)
    def test_overlong_row_index(self):
        with pytest.raises(WitnessParseError) as err:
            parse_witness("biramsey-witness v1\nm=1 n=2 t=1\n1" + "0" * 4400 + ": 1\n")
        assert err.value.line == 3
        assert "expected row index 1" in str(err.value)

    def test_row_index_leading_zeros_accepted(self):
        text = "biramsey-witness v1\nm=1 n=2 t=1\n" + "0" * 4400 + "1: 2\n"
        assert parse_witness(text).graph.row_masks == (0b10,)

    @pytest.mark.parametrize("name", ["m", "n", "t"])
    def test_overlong_parameter(self, name):
        params = {"m": "1", "n": "2", "t": "1", name: "1" + "0" * 4400}
        with pytest.raises(WitnessParseError) as err:
            parse_witness(
                "biramsey-witness v1\nm={m} n={n} t={t}\n1: 1\n".format(**params)
            )
        assert err.value.line == 2
        assert "too many digits" in str(err.value)

    def test_non_ascii_parameter(self):
        with pytest.raises(WitnessParseError) as err:
            parse_witness("biramsey-witness v1\nm=\u0662 n=2 t=1\n1: 1\n2: 2\n")
        assert err.value.line == 2


class TestKnownValueRecord:
    def test_verified_witness_needs_matching_certificate(self):
        cert = verify_good_coloring(witness_6x39(), 5)
        record = KnownValueRecord(
            m=6, t=5, status=EXACT, provenance=VERIFIED_WITNESS, value=40, certificate=cert
        )
        assert record.value == 40
        with pytest.raises(UsageError):
            KnownValueRecord(
                m=6, t=5, status=EXACT, provenance=VERIFIED_WITNESS, value=39, certificate=cert
            )
        with pytest.raises(UsageError):
            KnownValueRecord(m=6, t=5, status=EXACT, provenance=VERIFIED_WITNESS, value=40)

    def test_searched_record_describe(self):
        record = KnownValueRecord(m=7, t=3, status=EXACT, provenance=SEARCHED, value=9)
        assert "= 9" in record.describe()

    def test_nonexistent_describe(self):
        record = KnownValueRecord(
            m=5, t=5, status=NONEXISTENT, provenance=VERIFIED_WITNESS, note="m <= t"
        )
        assert "NONEXISTENT" in record.describe()

    def test_unknown_labels_rejected(self):
        with pytest.raises(UsageError):
            KnownValueRecord(m=1, t=1, status="odd", provenance=SEARCHED)
        with pytest.raises(UsageError):
            KnownValueRecord(m=1, t=1, status=EXACT, provenance="hearsay", value=2)
