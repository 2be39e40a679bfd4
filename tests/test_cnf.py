"""CNF encoding, DIMACS format, model decoding, and the toy DPLL."""

import hashlib
import io
import os
import stat
import threading
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biramsey.cnf import (
    CnfInstance,
    EncodingIntegrityError,
    decode_model,
    dpll,
    encode_cnf,
    graph_from_model,
    model_from_graph,
    satisfies,
    solve_with_toy_dpll,
    write_dimacs,
)
from biramsey.core import BipartiteGraph, UsageError
from biramsey.search import ARROWS, NOT_ARROWS, ArrowingInstance, arrows
from biramsey.witnesses import witness_8x29

from oracles import arrows_oracle, clauses_from_definition, lex_first_model, model_satisfies

# every instance with m <= 4, n <= 6 and 1 <= t <= min(m, n)
SMALL_INSTANCES = [
    (m, n, t) for m in range(1, 5) for n in range(1, 7) for t in range(1, min(m, n) + 1)
]


class TestCounts:
    def test_3x3_t2(self):
        cnf = encode_cnf(ArrowingInstance(3, 3, 2))
        assert cnf.num_vars == 9
        assert cnf.num_clauses == 9 + 9

    def test_7x30_t5(self):
        cnf = encode_cnf(ArrowingInstance(7, 30, 5))
        assert cnf.num_vars == 210
        assert cnf.num_clauses == 21 * 435 + 21 * 142506

    def test_clause_stream_matches_count(self):
        cnf = encode_cnf(ArrowingInstance(3, 4, 2))
        clauses = list(cnf.clauses())
        assert len(clauses) == cnf.num_clauses
        assert len(clauses) == comb(3, 2) * comb(4, 2) * 2

    def test_t_too_large_rejected(self):
        with pytest.raises(UsageError):
            encode_cnf(ArrowingInstance(3, 3, 4))
        with pytest.raises(UsageError):
            encode_cnf(ArrowingInstance(5, 3, 4))


class TestDimacs:
    def test_exact_text_2x2_t2(self):
        cnf = encode_cnf(ArrowingInstance(2, 2, 2))
        assert list(cnf.dimacs_lines()) == [
            "p cnf 4 2",
            "-1 -2 -3 -4 0",
            "1 2 3 4 0",
        ]

    def test_lines_match_clause_stream(self):
        cnf = encode_cnf(ArrowingInstance(3, 4, 2))
        lines = list(cnf.dimacs_lines())
        assert lines[0] == f"p cnf {cnf.num_vars} {cnf.num_clauses}"
        for line, clause in zip(lines[1:], cnf.clauses()):
            assert line == " ".join(str(lit) for lit in clause) + " 0"

    def test_byte_stable(self):
        cnf = encode_cnf(ArrowingInstance(4, 5, 2))
        one = io.StringIO()
        two = io.StringIO()
        write_dimacs(cnf, one)
        write_dimacs(cnf, two)
        assert one.getvalue() == two.getvalue()
        assert one.getvalue().endswith("0\n")

    def test_write_to_path(self, tmp_path):
        target = tmp_path / "inst.cnf"
        cnf = encode_cnf(ArrowingInstance(2, 2, 2))
        write_dimacs(cnf, target)
        assert target.read_bytes() == b"p cnf 4 2\n-1 -2 -3 -4 0\n1 2 3 4 0\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_7x8_t3_digest_pinned(self, tmp_path):
        # digest, size and clause count as recorded in bench/golden.json
        target = tmp_path / "7x8.cnf"
        write_dimacs(CnfInstance(7, 8, 3), target)
        data = target.read_bytes()
        assert len(data) == 64_225
        assert data.count(b"\n") == 1 + 2_548
        assert (
            hashlib.sha256(data).hexdigest()
            == "913eb0c1b99f651daefa4f9c9a44077c63392baad1d3ed1fecf2418a8e55a317"
        )


class TestInterruptedWrite:
    """An export cut short leaves the target path as it was."""

    @pytest.fixture
    def interrupted(self, monkeypatch):
        def dimacs_lines(self):
            yield "p cnf 4 2"
            yield "-1 -2 -3 -4 0"
            raise KeyboardInterrupt

        monkeypatch.setattr(CnfInstance, "dimacs_lines", dimacs_lines)
        return CnfInstance(2, 2, 2)

    def test_new_target_not_created(self, tmp_path, interrupted):
        target = tmp_path / "inst.cnf"
        with pytest.raises(KeyboardInterrupt):
            write_dimacs(interrupted, target)
        assert list(tmp_path.iterdir()) == []

    def test_existing_target_unchanged(self, tmp_path, interrupted):
        target = tmp_path / "inst.cnf"
        target.write_bytes(b"p cnf 1 1\n1 0\n")
        with pytest.raises(KeyboardInterrupt):
            write_dimacs(interrupted, target)
        assert target.read_bytes() == b"p cnf 1 1\n1 0\n"
        assert list(tmp_path.iterdir()) == [target]


class TestWriteTargets:
    """Regular files are replaced whole; anything else is written directly."""

    TEXT = b"p cnf 4 2\n-1 -2 -3 -4 0\n1 2 3 4 0\n"

    @pytest.fixture
    def unbuilt(self, monkeypatch):
        # a path that cannot be written must fail before any line is built
        def dimacs_lines(self):
            raise AssertionError("dimacs_lines started")
            yield

        monkeypatch.setattr(CnfInstance, "dimacs_lines", dimacs_lines)
        return CnfInstance(2, 2, 2)

    def test_directory_target_fails_at_once(self, tmp_path, unbuilt):
        with pytest.raises(IsADirectoryError):
            write_dimacs(unbuilt, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_missing_parent_fails_at_once(self, tmp_path, unbuilt):
        target = tmp_path / "missing" / "inst.cnf"
        with pytest.raises(FileNotFoundError) as info:
            write_dimacs(unbuilt, target)
        assert info.value.filename == str(target)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
    def test_fifo_target_streamed(self, tmp_path):
        fifo = tmp_path / "solver.in"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True
        )
        reader.start()
        write_dimacs(CnfInstance(2, 2, 2), fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [self.TEXT]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert list(tmp_path.iterdir()) == [fifo]

    def test_symlink_written_through(self, tmp_path):
        real = tmp_path / "real.cnf"
        real.write_bytes(b"old\n")
        link = tmp_path / "link.cnf"
        link.symlink_to(real)
        write_dimacs(CnfInstance(2, 2, 2), link)
        assert link.is_symlink()
        assert real.read_bytes() == self.TEXT
        assert sorted(tmp_path.iterdir()) == [link, real]

    def test_existing_part_file_untouched(self, tmp_path):
        target = tmp_path / "inst.cnf"
        mine = tmp_path / "inst.cnf.part"
        mine.write_bytes(b"keep\n")
        write_dimacs(CnfInstance(2, 2, 2), target)
        assert target.read_bytes() == self.TEXT
        assert mine.read_bytes() == b"keep\n"
        assert sorted(tmp_path.iterdir()) == [target, mine]

    def test_mode_of_new_and_existing_target(self, tmp_path):
        umask = os.umask(0o022)
        try:
            fresh = tmp_path / "fresh.cnf"
            write_dimacs(CnfInstance(2, 2, 2), fresh)
            assert stat.S_IMODE(fresh.stat().st_mode) == 0o644
            kept = tmp_path / "kept.cnf"
            kept.write_bytes(b"old\n")
            kept.chmod(0o640)
            write_dimacs(CnfInstance(2, 2, 2), kept)
            assert stat.S_IMODE(kept.stat().st_mode) == 0o640
            assert kept.read_bytes() == self.TEXT
        finally:
            os.umask(umask)


class TestClauseOracle:
    @staticmethod
    def check(m, n, t):
        cnf = CnfInstance(m, n, t)
        expected = clauses_from_definition(m, n, t)
        assert list(cnf.clauses()) == expected, (m, n, t)
        lines = list(cnf.dimacs_lines())
        assert lines[0] == f"p cnf {m * n} {len(expected)}", (m, n, t)
        assert lines[1:] == [
            " ".join(str(lit) for lit in clause) + " 0" for clause in expected
        ], (m, n, t)

    def test_clauses_match_definition(self):
        for m, n, t in SMALL_INSTANCES:
            self.check(m, n, t)

    # m > t and n >> t, so each row's part is a long stream of column subsets
    # and every row subset mixes rows from both ends
    @pytest.mark.parametrize("m, n, t", [(6, 8, 3), (5, 9, 4), (7, 9, 5)])
    def test_wide_row_parts_match_definition(self, m, n, t):
        self.check(m, n, t)


class TestModels:
    def test_variable_indexing(self):
        cnf = encode_cnf(ArrowingInstance(3, 4, 2))
        assert cnf.var(0, 0) == 1
        assert cnf.var(1, 0) == 5
        assert cnf.var(2, 3) == 12
        with pytest.raises(UsageError):
            cnf.var(3, 0)

    def test_graph_model_roundtrip(self):
        cnf = encode_cnf(ArrowingInstance(2, 3, 2))
        g = BipartiteGraph.from_rows(2, 3, [[0, 2], [1]])
        assert graph_from_model(cnf, model_from_graph(cnf, g)) == g

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_model_matches_cells(self, data):
        m = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 12))
        masks = tuple(data.draw(st.integers(0, (1 << n) - 1)) for _ in range(m))
        g = BipartiteGraph(m, n, masks)
        cnf = CnfInstance(m, n, 1)
        model = model_from_graph(cnf, g)
        # variable v(i,j) = i*n + j + 1 sits at index i*n + j
        assert model == tuple(bool(mask >> j & 1) for mask in masks for j in range(n))
        assert graph_from_model(cnf, model) == g

    def test_wide_model_roundtrip_in_linear_time(self):
        cnf = CnfInstance(1, 1_000_000, 1)
        start = time.perf_counter()
        model = model_from_graph(cnf, BipartiteGraph.complete(1, 1_000_000))
        cert = decode_model(cnf, model, strict=True)
        elapsed = time.perf_counter() - start
        assert model == (True,) * 1_000_000
        assert cert.valid and cert.graph.row_masks == ((1 << 1_000_000) - 1,)
        assert elapsed < 10, elapsed

    def test_all_false_model_decodes_invalid(self):
        cnf = encode_cnf(ArrowingInstance(5, 6, 5))
        cert = decode_model(cnf, (False,) * 30)
        assert not cert.valid
        with pytest.raises(EncodingIntegrityError):
            decode_model(cnf, (False,) * 30, strict=True)

    def test_wrong_model_length(self):
        cnf = encode_cnf(ArrowingInstance(2, 2, 2))
        with pytest.raises(UsageError):
            decode_model(cnf, (True,) * 3)

    def test_witness_8x29_satisfies_small_cross_section(self):
        # the full 6.6M-clause satisfaction check lives in the acceptance suite
        cnf = encode_cnf(ArrowingInstance(8, 29, 5))
        model = model_from_graph(cnf, witness_8x29())
        cert = decode_model(cnf, model, strict=True)
        assert cert.valid

    def test_satisfies_small(self):
        cnf = encode_cnf(ArrowingInstance(4, 4, 2))
        out = arrows(ArrowingInstance(4, 4, 2))
        model = model_from_graph(cnf, out.certificate.graph)
        assert satisfies(cnf, model)
        assert not satisfies(cnf, (True,) * 16)


class TestSatisfies:
    """``satisfies`` against a literal-by-literal reference on the oracle clauses."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(SMALL_INSTANCES), st.randoms(use_true_random=False), st.floats(0, 1))
    def test_random_models(self, instance, rnd, density):
        m, n, t = instance
        model = tuple(rnd.random() < density for _ in range(m * n))
        expected = model_satisfies(clauses_from_definition(m, n, t), model)
        assert satisfies(CnfInstance(m, n, t), model) == expected

    @pytest.mark.parametrize("m,n,t", [(4, 6, 3), (4, 5, 3), (3, 4, 3)])
    def test_one_falsified_clause_near_a_good_coloring(self, m, n, t):
        # from a good coloring, make exactly one clause false: add the edges
        # of one C4, or remove the edges inside one t x t block
        cnf = CnfInstance(m, n, t)
        clauses = clauses_from_definition(m, n, t)
        base = model_from_graph(cnf, arrows(ArrowingInstance(m, n, t)).certificate.graph)
        assert satisfies(cnf, base) and model_satisfies(clauses, base)
        found = {"no-K22": 0, "covering": 0}
        for clause in clauses:
            model = list(base)
            for lit in clause:
                model[abs(lit) - 1] = lit < 0
            if sum(not model_satisfies([c], model) for c in clauses) == 1:
                assert not satisfies(cnf, model), clause
                found["no-K22" if clause[0] < 0 else "covering"] += 1
        assert found["no-K22"] > 0 and found["covering"] > 0


class TestDpll:
    def test_trivial_cases(self):
        assert dpll(1, [(1,)]) == (True, (True,))
        assert dpll(1, [(-1,)]) == (True, (False,))
        assert dpll(1, [(1,), (-1,)]) == (False, None)
        assert dpll(2, [(1, 2), (-1, 2), (1, -2), (-1, -2)]) == (False, None)

    def test_unit_propagation_chain(self):
        sat, model = dpll(3, [(1,), (-1, 2), (-2, 3)])
        assert sat and model == (True, True, True)

    def test_empty_clause_unsat(self):
        assert dpll(2, [(), (1, 2)]) == (False, None)

    def test_tautology_is_never_a_unit(self):
        # with 2 false, (2 | -1 | 1) has two free literals, -1 and 1, and
        # forcing -1 from it would contradict the unit clause (1)
        assert dpll(2, [(1,), (-2,), (2, -1, 1)]) == (True, (True, False))
        assert dpll(2, [(2, -1, 1), (-2,), (1,)]) == (True, (True, False))

    def test_out_of_range_literal(self):
        for bad in (0, 3, -3):
            with pytest.raises(UsageError):
                dpll(2, [(1, bad)])

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 7).flatmap(
            lambda nv: st.tuples(
                st.just(nv),
                st.lists(
                    st.lists(st.integers(-nv, nv).filter(bool), max_size=5).map(tuple),
                    max_size=12,
                ),
            )
        )
    )
    def test_lex_first_model_against_brute_force(self, formula):
        # literals are drawn with replacement, so clauses repeat literals,
        # hold x and -x, or are empty
        num_vars, clauses = formula
        assert dpll(num_vars, clauses) == lex_first_model(num_vars, clauses)

    def test_agreement_with_search_small_sweep(self):
        for m in range(2, 5):
            for n in range(2, 5):
                cnf = encode_cnf(ArrowingInstance(m, n, 2))
                sat, cert = solve_with_toy_dpll(cnf)
                verdict = arrows(ArrowingInstance(m, n, 2)).verdict
                assert sat == (verdict == NOT_ARROWS), (m, n)
                if sat:
                    assert cert.valid

    def test_agreement_with_raw_oracle(self):
        for m, n in ((2, 3), (3, 3), (4, 4)):
            cnf = encode_cnf(ArrowingInstance(m, n, 2))
            sat, _ = solve_with_toy_dpll(cnf)
            assert sat != arrows_oracle(m, n, 2)

    def test_5x5_t2_unsat(self):
        sat, cert = solve_with_toy_dpll(encode_cnf(ArrowingInstance(5, 5, 2)))
        assert not sat and cert is None
        assert arrows(ArrowingInstance(5, 5, 2)).verdict == ARROWS

    def test_size_guard(self):
        with pytest.raises(UsageError):
            solve_with_toy_dpll(encode_cnf(ArrowingInstance(7, 30, 5)))
