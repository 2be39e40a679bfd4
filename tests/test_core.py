"""Core graph operations against fixtures, exhaustive small cases, and oracles."""

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biramsey.core import (
    BicliqueSpec,
    BipartiteGraph,
    UsageError,
    columns_from_mask,
    complement,
    contains_biclique,
    degree,
    find_biclique,
    induced_rows,
    is_c4_free,
    mask_from_columns,
    max_row_degree,
    pair_budget,
    row_intersection_size,
    transpose,
    union_coverage,
)
from biramsey.witnesses import witness_6x39, witness_8x29

from oracles import contains_biclique_enum


def graph_from_code(code: int, m: int, n: int) -> BipartiteGraph:
    full = (1 << n) - 1
    return BipartiteGraph(m, n, tuple((code >> (i * n)) & full for i in range(m)))


@st.composite
def graphs(draw, max_m=6, max_n=8):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    masks = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(m))
    return BipartiteGraph(m, n, masks)


class TestColumnsFromMask:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, (1 << 300) - 1))
    def test_matches_bit_tests(self, mask):
        # the engine-free unpack: test every bit below the top one
        want = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
        assert columns_from_mask(mask) == want

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_pack_matches_bit_sum(self, data):
        n = data.draw(st.integers(1, 300))
        cols = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        mask = mask_from_columns(cols, n)
        # the engine-free pack: one power of two per distinct column
        assert mask == sum(1 << c for c in set(cols))
        assert columns_from_mask(mask) == tuple(sorted(set(cols)))

    @pytest.mark.parametrize("n", [1, 8, 9, 300])
    def test_pack_rejects_columns_out_of_range(self, n):
        for c in (-1, n):
            with pytest.raises(UsageError):
                mask_from_columns([0, c], n)

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_m=12, max_n=12))
    def test_transpose_matches_cells(self, g):
        h = transpose(g)
        assert (h.m, h.n) == (g.n, g.m)
        for i in range(g.m):
            for j in range(g.n):
                assert h.row_masks[j] >> i & 1 == g.row_masks[i] >> j & 1


class TestConstruction:
    def test_invariants_enforced(self):
        with pytest.raises(UsageError):
            BipartiteGraph(0, 3, ())
        with pytest.raises(UsageError):
            BipartiteGraph(1, 0, (0,))
        with pytest.raises(UsageError):
            BipartiteGraph(2, 3, (0,))
        with pytest.raises(UsageError):
            BipartiteGraph(1, 3, (0b1000,))
        with pytest.raises(UsageError):
            BipartiteGraph.from_rows(1, 3, [[3]])

    def test_rows_roundtrip(self):
        g = BipartiteGraph.from_rows(2, 5, [[0, 2, 4], []])
        assert g.rows == (frozenset({0, 2, 4}), frozenset())
        assert g.row_masks == (0b10101, 0)
        assert g.edge_count() == 3

    def test_spec_rejects_degenerate_pattern(self):
        with pytest.raises(UsageError):
            BicliqueSpec(0, 2)
        with pytest.raises(UsageError):
            BicliqueSpec(2, 0)


class TestDegree:
    def test_witness_6x39_row0(self):
        assert degree(witness_6x39(), 0) == 9

    def test_empty_graph(self):
        assert degree(BipartiteGraph.empty(3, 3), 1) == 0

    def test_witness_8x29_degrees(self):
        g = witness_8x29()
        assert degree(g, 0) == 8
        assert [degree(g, i) for i in range(1, 8)] == [7] * 7

    def test_out_of_range(self):
        with pytest.raises(UsageError):
            degree(witness_6x39(), 6)
        with pytest.raises(UsageError):
            degree(witness_6x39(), -1)


class TestMaxRowDegree:
    def test_fixtures(self):
        assert max_row_degree(witness_6x39()) == 9
        assert max_row_degree(witness_8x29()) == 8

    def test_empty(self):
        assert max_row_degree(BipartiteGraph.empty(5, 5)) == 0


class TestRowIntersection:
    def test_witness_6x39_all_pairs_one(self):
        g = witness_6x39()
        assert all(
            row_intersection_size(g, i, j) == 1 for i, j in combinations(range(6), 2)
        )

    def test_witness_8x29_all_pairs_one(self):
        g = witness_8x29()
        assert all(
            row_intersection_size(g, i, j) == 1 for i, j in combinations(range(8), 2)
        )

    def test_empty(self):
        assert row_intersection_size(BipartiteGraph.empty(2, 4), 0, 1) == 0

    def test_same_row_rejected(self):
        with pytest.raises(UsageError):
            row_intersection_size(witness_6x39(), 2, 2)


class TestC4Free:
    def test_witnesses_are_c4_free(self):
        assert is_c4_free(witness_6x39())
        assert is_c4_free(witness_8x29())

    def test_complete_2x2(self):
        assert not is_c4_free(BipartiteGraph.complete(2, 2))

    def test_equivalence_with_biclique_exhaustive_3x3(self):
        spec = BicliqueSpec(2, 2)
        for code in range(1 << 9):
            g = graph_from_code(code, 3, 3)
            assert is_c4_free(g) == (not contains_biclique(g, spec))

    def test_equivalence_with_biclique_random_8x8(self):
        rng = random.Random(20240817)
        spec = BicliqueSpec(2, 2)
        for _ in range(300):
            masks = tuple(rng.getrandbits(8) for _ in range(8))
            g = BipartiteGraph(8, 8, masks)
            assert is_c4_free(g) == (not contains_biclique(g, spec))


class TestContainsBiclique:
    def test_complete_5x5(self):
        assert contains_biclique(BipartiteGraph.complete(5, 5), BicliqueSpec(5, 5))

    def test_witness_6x39_avoids_k22(self):
        assert not contains_biclique(witness_6x39(), BicliqueSpec(2, 2))

    def test_oracle_equivalence_exhaustive_4x4(self):
        # every 4x4 graph, a handful of reduced specs
        specs = [(1, 1), (2, 2), (2, 3), (3, 2), (4, 4)]
        for code in range(1 << 16):
            g = graph_from_code(code, 4, 4)
            rows = g.rows
            for s, t in specs:
                got = contains_biclique(g, BicliqueSpec(s, t))
                want = contains_biclique_enum(list(rows), 4, s, t)
                assert got == want, (code, s, t)

    def test_embedding_is_real(self):
        rng = random.Random(7)
        for _ in range(200):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            g = BipartiteGraph(m, n, tuple(rng.getrandbits(n) for _ in range(m)))
            s, t = rng.randint(1, 3), rng.randint(1, 3)
            hit = find_biclique(g, BicliqueSpec(s, t))
            if hit is not None:
                rows, cols = hit
                assert len(rows) == s and len(cols) == t
                assert all(g.row_masks[i] >> c & 1 for i in rows for c in cols)

    @settings(max_examples=200, deadline=None)
    @given(graphs(), st.integers(1, 3), st.integers(1, 3))
    def test_duality_via_transpose(self, g, s, t):
        assert contains_biclique(g, BicliqueSpec(s, t)) == contains_biclique(
            transpose(g), BicliqueSpec(t, s)
        )

    def test_monotone_under_edge_addition(self):
        rng = random.Random(99)
        spec = BicliqueSpec(2, 2)
        for _ in range(200):
            m, n = rng.randint(2, 5), rng.randint(2, 5)
            masks = [rng.getrandbits(n) for _ in range(m)]
            g = BipartiteGraph(m, n, tuple(masks))
            i, c = rng.randrange(m), rng.randrange(n)
            masks[i] |= 1 << c
            g_plus = BipartiteGraph(m, n, tuple(masks))
            if contains_biclique(g, spec):
                assert contains_biclique(g_plus, spec)


class TestComplement:
    def test_empty_to_complete(self):
        assert complement(BipartiteGraph.empty(3, 4)) == BipartiteGraph.complete(3, 4)

    @settings(max_examples=200, deadline=None)
    @given(graphs())
    def test_involution(self, g):
        assert complement(complement(g)) == g

    def test_witness_6x39_complement_k54(self):
        # dropping row 0 leaves rows 1..5 covering 35 columns; the 4 uncovered
        # columns with those 5 rows form K_{5,4} in the complement
        g = witness_6x39()
        assert contains_biclique(complement(g), BicliqueSpec(5, 4))
        union = 0
        for i in range(1, 6):
            union |= g.row_masks[i]
        uncovered = [c for c in range(39) if not union >> c & 1]
        assert len(uncovered) == 4
        comp = complement(g)
        assert all(comp.row_masks[i] >> c & 1 for i in range(1, 6) for c in uncovered)


class TestUnionCoverage:
    def test_witness_6x39_five_rows(self):
        g = witness_6x39()
        for dropped in range(6):
            subset = [i for i in range(6) if i != dropped]
            report = union_coverage(g, subset)
            assert (report.covered, report.uncovered) == (35, 4)

    def test_empty_subset(self):
        report = union_coverage(witness_6x39(), [])
        assert (report.covered, report.uncovered) == (0, 39)

    def test_witness_8x29_coverages(self):
        g = witness_8x29()
        for subset in combinations(range(1, 8), 5):
            assert union_coverage(g, subset).covered == 25
        for tail in combinations(range(1, 8), 4):
            assert union_coverage(g, (0,) + tail).covered == 26

    def test_report_sums_to_n(self):
        rng = random.Random(3)
        for _ in range(100):
            m, n = rng.randint(1, 6), rng.randint(1, 8)
            g = BipartiteGraph(m, n, tuple(rng.getrandbits(n) for _ in range(m)))
            k = rng.randint(0, m)
            report = union_coverage(g, rng.sample(range(m), k))
            assert report.covered + report.uncovered == n
            assert 0 <= report.covered <= n


class TestPairBudget:
    def test_witness_6x39(self):
        assert pair_budget(witness_6x39()) == (6 * 36, comb(39, 2))

    def test_empty(self):
        assert pair_budget(BipartiteGraph.empty(4, 4))[0] == 0

    def test_necessary_not_sufficient(self):
        g = BipartiteGraph(2, 4, (0b0011, 0b0011))
        used, capacity = pair_budget(g)
        assert used == 2 and used <= capacity
        assert not is_c4_free(g)

    def test_c4_free_implies_within_budget_exhaustive_3x4(self):
        for code in range(1 << 12):
            g = graph_from_code(code, 3, 4)
            if is_c4_free(g):
                used, capacity = pair_budget(g)
                assert used <= capacity


class TestCoverageComplementLink:
    def test_exhaustive_3x3(self):
        # K_{t,t} in the complement iff some t rows leave >= t columns uncovered
        for code in range(1 << 9):
            g = graph_from_code(code, 3, 3)
            for t in (1, 2, 3):
                via_biclique = contains_biclique(complement(g), BicliqueSpec(t, t))
                via_coverage = any(
                    union_coverage(g, subset).uncovered >= t
                    for subset in combinations(range(3), t)
                )
                assert via_biclique == via_coverage

    def test_random_5x6(self):
        rng = random.Random(11)
        for _ in range(300):
            g = BipartiteGraph(5, 6, tuple(rng.getrandbits(6) for _ in range(5)))
            for t in (2, 3):
                via_biclique = contains_biclique(complement(g), BicliqueSpec(t, t))
                via_coverage = any(
                    union_coverage(g, subset).uncovered >= t
                    for subset in combinations(range(5), t)
                )
                assert via_biclique == via_coverage


class TestTransposeInduced:
    def test_transpose_involution(self):
        g = witness_8x29()
        assert transpose(transpose(g)) == g

    def test_induced_rows(self):
        g = witness_8x29()
        h = induced_rows(g, range(7))
        assert h.m == 7 and h.n == 29
        assert h.row_masks == g.row_masks[:7]
        with pytest.raises(UsageError):
            induced_rows(g, [8])
