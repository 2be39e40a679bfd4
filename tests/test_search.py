"""Search engine: pruning lemma values, canonical generation, verdicts, budgets."""

import hashlib
import json
from functools import reduce
from itertools import combinations, permutations
from operator import or_

import pytest

from biramsey.core import BipartiteGraph, UsageError, columns_from_mask
from biramsey.search import (
    ARROWS,
    BUDGET_EXHAUSTED,
    NOT_ARROWS,
    PRUNE_RULES,
    RULE_CANONICAL,
    RULE_COVERAGE,
    RULE_DEGREE_CAP,
    RULE_PAIR_BUDGET,
    ArrowingInstance,
    SearchConfig,
    _lex_le,
    _refine_intervals,
    _Worker,
    arrows,
    canonical_extension_ok,
    degree_cap,
    find_br_m,
    is_canonical_assignment,
    nonexistence_criterion,
)
from biramsey.witnesses import (
    EXACT,
    LOWER_BOUND,
    NONEXISTENT,
    star_witness,
    verify_good_coloring,
    witness_6x39,
    witness_8x29,
)

from oracles import (
    arrows_oracle,
    arrows_oracle_row_canonical,
    arrows_oracle_t2,
    c4_free_classes,
    row_orders,
)


def fingerprint(out):
    """Everything in an outcome that must be reproducible (all but the timing)."""
    masks = out.certificate.graph.row_masks if out.certificate else None
    return out.verdict, masks, out.stats.nodes, out.stats.attempts, out.stats.prunes


def assert_within_budget(out, budget: int) -> None:
    assert out.stats.nodes <= budget, (out.verdict, out.stats.nodes, budget)
    if out.verdict == BUDGET_EXHAUSTED:
        assert out.stats.nodes == budget


def graph_from_code(code: int, m: int, n: int) -> BipartiteGraph:
    full = (1 << n) - 1
    return BipartiteGraph(m, n, tuple((code >> (i * n)) & full for i in range(m)))


class TestDegreeCap:
    def test_values(self):
        assert degree_cap(6, 40, 5) == 9
        assert degree_cap(7, 30, 5) == 9
        assert degree_cap(3, 100, 5) == 100

    def test_hypothesis_boundaries(self):
        assert degree_cap(6, 10, 5) == 9  # minimal m, n where the cap applies
        assert degree_cap(5, 40, 5) == 40  # one row short
        assert degree_cap(6, 9, 5) == 9  # n below 2t: no cap asserted, cap = n anyway

    def test_validation(self):
        with pytest.raises(UsageError):
            degree_cap(0, 1, 1)


class TestNonexistence:
    def test_values(self):
        assert nonexistence_criterion(5, 5)
        assert not nonexistence_criterion(6, 5)
        assert nonexistence_criterion(2, 3)

    def test_matches_star_validity(self):
        # m <= t iff the star is good for every n (checked over a sample of n)
        from biramsey.witnesses import verify_good_coloring

        for m in range(1, 8):
            for t in range(1, 6):
                always_good = all(
                    verify_good_coloring(star_witness(m, n), t).valid
                    for n in range(1, 16)
                )
                assert nonexistence_criterion(m, t) == always_good, (m, t)


class TestCanonicalExtension:
    def test_first_row_block_rule(self):
        assert canonical_extension_ok(None, [0, 1, 2], n=5)
        assert not canonical_extension_ok(None, [1, 2, 3], n=5)

    def test_duplicate_with_larger_degree_rejected(self):
        partial = BipartiteGraph.from_rows(2, 6, [[0, 1, 2], [0]])
        assert not canonical_extension_ok(partial, [0, 1, 2])

    def test_degree_may_not_increase(self):
        partial = BipartiteGraph.from_rows(1, 6, [[0, 1]])
        assert not canonical_extension_ok(partial, [0, 2, 3])
        assert canonical_extension_ok(partial, [0, 2])
        assert canonical_extension_ok(partial, [2])

    def test_new_columns_must_be_next_block(self):
        partial = BipartiteGraph.from_rows(1, 6, [[0, 1, 2]])
        assert canonical_extension_ok(partial, [0, 3])
        assert not canonical_extension_ok(partial, [0, 4])

    def test_lex_order_within_equal_degree(self):
        # rows of equal degree must be non-increasing in column lex order,
        # where smaller columns are more significant
        partial = BipartiteGraph.from_rows(2, 8, [[0, 1, 2], [3, 4]])
        assert not canonical_extension_ok(partial, [0, 3])  # {0,3} >lex {3,4}
        assert canonical_extension_ok(partial, [3, 5])  # {3,5} <lex {3,4}

    def test_interval_prefix_rule(self):
        # interchangeable columns must be consumed in label order: after rows
        # {0,1,2} and {0,3}, a later row meeting {1,2} must take column 1
        partial = BipartiteGraph.from_rows(2, 8, [[0, 1, 2], [0, 3]])
        assert canonical_extension_ok(partial, [1, 4])
        assert not canonical_extension_ok(partial, [2, 4])
        assert canonical_extension_ok(partial, [1, 3])
        # non-canonical partials are reported not extendable
        crooked = BipartiteGraph.from_rows(2, 8, [[0, 1, 2], [1, 3]])
        assert not canonical_extension_ok(crooked, [4])

    def test_column_permutations_single_representative(self):
        # apply every column permutation to each canonical graph: only images
        # equal to the graph itself may be canonical again
        n = 4
        for code in range(1 << (3 * n)):
            g = graph_from_code(code, 3, n)
            if not is_canonical_assignment(g):
                continue
            for perm in permutations(range(n)):
                masks = []
                for mask in g.row_masks:
                    pm = 0
                    for c in columns_from_mask(mask):
                        pm |= 1 << perm[c]
                    masks.append(pm)
                image = BipartiteGraph(3, n, tuple(masks))
                if image != g:
                    assert not is_canonical_assignment(image), (code, perm)

    def test_every_graph_has_canonical_image(self):
        # row and column relabelling can always reach a canonical assignment
        n = 3
        for code in range(1 << (3 * n)):
            g = graph_from_code(code, 3, n)
            found = False
            for rperm in permutations(range(3)):
                for cperm in permutations(range(n)):
                    masks = []
                    for i in rperm:
                        pm = 0
                        for c in columns_from_mask(g.row_masks[i]):
                            pm |= 1 << cperm[c]
                        masks.append(pm)
                    if is_canonical_assignment(BipartiteGraph(3, n, tuple(masks))):
                        found = True
                        break
                if found:
                    break
            assert found, code

    @pytest.mark.parametrize(
        "m, n, classes", [(3, 4, 40), (4, 4, 92), (3, 5, 66), (2, 6, 28), (4, 5, 186)]
    )
    def test_every_c4_free_class_has_canonical_image(self, m, n, classes):
        # orderly generation is complete only if each isomorphism class of
        # C4-free graphs keeps at least one canonical member
        found = c4_free_classes(m, n)
        assert len(found) == classes
        for images in found:
            assert any(
                is_canonical_assignment(BipartiteGraph(m, n, order))
                for order in row_orders(images)
            ), min(images)


class TestArrows:
    def test_1x1_t1(self):
        out = arrows(ArrowingInstance(1, 1, 1))
        assert out.verdict == NOT_ARROWS
        assert out.certificate.graph.row_masks == (1,)

    def test_4x4_t2(self):
        out = arrows(ArrowingInstance(4, 4, 2))
        assert out.verdict == NOT_ARROWS
        assert out.certificate.valid

    def test_5x5_t2(self):
        out = arrows(ArrowingInstance(5, 5, 2))
        assert out.verdict == ARROWS
        assert out.stats.nodes > 0

    def test_large_n_root_prune(self):
        # with cap 3, two rows cover at most 6 columns, leaving >= 2 of 100
        # (or of 8) uncovered: the root alone decides
        root_prunes = {rule: 0 for rule in PRUNE_RULES} | {RULE_COVERAGE: 1}
        for m, n in ((7, 100), (3, 8)):
            out = arrows(ArrowingInstance(m, n, 2))
            assert out.verdict == ARROWS
            assert (out.stats.nodes, out.stats.attempts, out.stats.prunes) == (
                1, 0, root_prunes), (m, n)
        # the root bound needs both the cap and the coverage rule
        for rule in (RULE_DEGREE_CAP, RULE_COVERAGE):
            cfg = SearchConfig(disabled_rules=frozenset({rule}))
            out = arrows(ArrowingInstance(3, 8, 2), cfg)
            assert out.verdict == ARROWS
            assert out.stats.attempts > 0, rule

    def test_spot_oracle_agreement(self):
        for m, n in ((2, 3), (3, 3), (3, 4), (4, 3), (4, 4)):
            want = ARROWS if arrows_oracle(m, n, 2) else NOT_ARROWS
            assert arrows(ArrowingInstance(m, n, 2)).verdict == want, (m, n)

    def test_monotone_in_n_engine(self):
        verdicts = {
            n: arrows(ArrowingInstance(4, n, 2)).verdict for n in range(2, 10)
        }
        first = min((n for n, v in verdicts.items() if v == ARROWS), default=None)
        assert first is not None
        assert all(verdicts[n] == ARROWS for n in range(first, 10))

    def test_monotone_in_m_engine(self):
        # adding a row preserves arrowing
        for n in range(2, 7):
            for m in range(2, 5):
                if arrows(ArrowingInstance(m, n, 2)).verdict == ARROWS:
                    assert arrows(ArrowingInstance(m + 1, n, 2)).verdict == ARROWS

    def test_oracle_agreement_t3(self):
        # t=2 is covered by the acceptance sweep; t=3 exercises the coverage
        # pruning the m=7, t=3 regression relies on
        for m in (3, 4):
            for n in range(3, 9):
                want = arrows_oracle_row_canonical(m, n, 3)
                got = arrows(ArrowingInstance(m, n, 3)).verdict
                assert got == (ARROWS if want else NOT_ARROWS), (m, n)
        for n in (5, 6):
            want = arrows_oracle_row_canonical(5, n, 3)
            got = arrows(ArrowingInstance(5, n, 3)).verdict
            assert got == (ARROWS if want else NOT_ARROWS), n

    def test_6x39_witness_rediscovered_unseeded(self):
        # the canonical dense-first search finds the bundled 6x39 coloring
        # itself (not merely an equivalent one) in under a second
        out = arrows(ArrowingInstance(6, 39, 5))
        assert out.verdict == NOT_ARROWS
        assert out.certificate.graph == witness_6x39()
        # the exact tree walked, so a change that shifts counting shows up
        assert (out.stats.nodes, out.stats.attempts) == (2165, 2336)
        assert out.stats.prunes == {
            RULE_DEGREE_CAP: 1,
            RULE_PAIR_BUDGET: 0,
            RULE_COVERAGE: 172,
            RULE_CANONICAL: 209,
        }

    def test_upper_bound_m7_t5(self):
        # the upper-bound half of BR_7(K_{2,2}, K_{5,5}) = 30, about 5 s
        out = arrows(ArrowingInstance(7, 30, 5))
        assert out.verdict == ARROWS
        assert out.stats.nodes == 132987

    def test_lower_bound_m7_t5_unseeded(self):
        # its lower-bound half, found by the search itself, about 3 s
        out = arrows(ArrowingInstance(7, 29, 5))
        assert out.verdict == NOT_ARROWS
        assert out.certificate.valid
        assert out.stats.nodes == 97983

    def test_arrows_counts_pinned(self):
        # the exact trees of ARROWS decisions: the t=4 instances of the
        # benchmark and of its long record, and a 5x12 t=3 search with and
        # without single rules.  With coverage off every row is built, so
        # that row holds the counts of trying every extendable row
        cases = (
            (8, 19, 4, None, 1896, 5775, 1, 3880, 692),
            (8, 20, 4, None, 643, 3558, 1, 2916, 316),
            (6, 23, 4, None, 644, 1615, 1, 972, 182),
            (8, 16, 4, None, 4717, 44707, 1, 39991, 8686),
            (5, 12, 3, None, 36, 110, 1, 75, 7),
            (5, 12, 3, RULE_DEGREE_CAP, 64, 300, 0, 237, 8),
            (5, 12, 3, RULE_COVERAGE, 37385, 37384, 1, 0, 12224),
        )
        for m, n, t, off, nodes, attempts, cap, coverage, canonical in cases:
            cfg = SearchConfig(disabled_rules=frozenset({off} if off else ()))
            out = arrows(ArrowingInstance(m, n, t), cfg)
            assert out.verdict == ARROWS, (m, n, t, off)
            assert (out.stats.nodes, out.stats.attempts) == (nodes, attempts), (m, n, t, off)
            assert out.stats.prunes == {
                RULE_DEGREE_CAP: cap,
                RULE_PAIR_BUDGET: 0,
                RULE_COVERAGE: coverage,
                RULE_CANONICAL: canonical,
            }, (m, n, t, off)


class TestSeeding:
    def test_witness_6x39_seed(self):
        out = arrows(ArrowingInstance(6, 39, 5), seed=witness_6x39())
        assert out.verdict == NOT_ARROWS
        assert out.stats.attempts == 0

    def test_witness_8x29_seed(self):
        out = arrows(ArrowingInstance(8, 29, 5), seed=witness_8x29())
        assert out.verdict == NOT_ARROWS

    def test_invalid_seed_falls_through(self):
        out = arrows(ArrowingInstance(5, 5, 2), seed=BipartiteGraph.empty(5, 5))
        assert out.verdict == ARROWS

    def test_mismatched_seed_rejected(self):
        with pytest.raises(UsageError):
            arrows(ArrowingInstance(5, 5, 2), seed=witness_6x39())


class TestBudgets:
    def test_node_budget_trips(self):
        out = arrows(ArrowingInstance(5, 5, 2), SearchConfig(node_budget=3))
        assert out.verdict == BUDGET_EXHAUSTED
        assert out.certificate is None

    def test_budget_never_wrong_verdict(self):
        # whatever the budget, the verdict is the true one or BUDGET_EXHAUSTED
        # and a tripped search has expanded exactly the budget of nodes, no more
        for budget in (1, 2, 5, 17, 80, 100000):
            out = arrows(ArrowingInstance(5, 5, 2), SearchConfig(node_budget=budget))
            assert out.verdict in (ARROWS, BUDGET_EXHAUSTED)
            assert_within_budget(out, budget)
            out = arrows(ArrowingInstance(4, 4, 2), SearchConfig(node_budget=budget))
            assert_within_budget(out, budget)
            if out.verdict != BUDGET_EXHAUSTED:
                assert out.verdict == NOT_ARROWS
                assert out.certificate.valid

    def test_budget_sweep_invariants(self):
        # only a budget below the unbudgeted node count trips, a trip
        # reports exactly the budget, and a budget that does not trip
        # changes nothing; a larger budget never walks fewer nodes
        for inst in (ArrowingInstance(6, 23, 4), ArrowingInstance(6, 30, 5)):
            full = arrows(inst)
            needed = full.stats.nodes
            last_nodes = 0
            budgets = {*range(1, 64), *range(64, needed, needed // 16),
                       needed - 1, needed, needed + 1}
            for budget in sorted(budgets):
                out = arrows(inst, SearchConfig(node_budget=budget))
                assert_within_budget(out, budget)
                tripped = budget < needed
                assert (out.verdict == BUDGET_EXHAUSTED) == tripped, (inst, budget)
                if not tripped:
                    assert fingerprint(out) == fingerprint(full), (inst, budget)
                # every attempt is a coverage prune or a child node; the root
                # is a node but no attempt, and the child that meets a spent
                # budget is an attempt but no node
                st = out.stats
                assert st.attempts == st.nodes - 1 + tripped + st.prunes[RULE_COVERAGE], (
                    inst, budget)
                assert st.nodes >= last_nodes, (inst, budget)
                last_nodes = st.nodes

    def test_budget_of_exactly_the_nodes_needed_never_trips(self):
        for t in (1, 2, 3):
            for m in range(1, 6):
                for n in range(1, 7):
                    for off in (frozenset(), frozenset({RULE_DEGREE_CAP})):
                        inst = ArrowingInstance(m, n, t)
                        full = arrows(inst, SearchConfig(disabled_rules=off))
                        cfg = SearchConfig(node_budget=full.stats.nodes, disabled_rules=off)
                        assert fingerprint(arrows(inst, cfg)) == fingerprint(full), (m, n, t, off)

    def test_time_budget_type(self):
        out = arrows(ArrowingInstance(4, 4, 2), SearchConfig(time_budget=30.0))
        assert out.verdict == NOT_ARROWS

    def test_time_budget_trips(self):
        # an already-passed deadline stops the search before its first attempt
        cfg = SearchConfig(time_budget=1e-9)
        out = arrows(ArrowingInstance(6, 40, 5), cfg)
        assert out.verdict == BUDGET_EXHAUSTED
        assert out.stats.attempts == 0
        assert out.certificate is None
        record = find_br_m(6, 5, 45, cfg)
        assert record.status == LOWER_BOUND
        assert record.bound == 5

    def test_config_validation(self):
        with pytest.raises(UsageError):
            SearchConfig(threads=0)
        with pytest.raises(UsageError):
            SearchConfig(node_budget=0)
        for secs in (0.0, -1.0, float("nan")):
            with pytest.raises(UsageError):
                SearchConfig(time_budget=secs)
        assert SearchConfig(time_budget=float("inf")).time_budget == float("inf")
        with pytest.raises(UsageError):
            SearchConfig(disabled_rules=frozenset({"mystery"}))


class TestDeterminism:
    def test_repeat_runs_identical(self):
        runs = [arrows(ArrowingInstance(4, 5, 2)) for _ in range(3)]
        masks = {r.certificate.graph.row_masks for r in runs if r.certificate}
        assert len({r.verdict for r in runs}) == 1
        assert len(masks) <= 1

    def test_threads_do_not_change_result(self):
        # verdict, witness and every count, with and without a node budget
        cases = ((4, 4, 2, None), (5, 5, 2, None), (4, 6, 2, None), (7, 7, 3, None),
                 (7, 7, 3, 40), (5, 5, 2, 7))
        for m, n, t, budget in cases:
            inst = ArrowingInstance(m, n, t)
            reference = fingerprint(arrows(inst, SearchConfig(node_budget=budget)))
            for threads in (2, 3, 4):
                cfg = SearchConfig(node_budget=budget, threads=threads)
                assert fingerprint(arrows(inst, cfg)) == reference, (m, n, t, budget, threads)

    def test_search_fingerprint_pinned(self):
        # verdict, witness masks, nodes, attempts and every prune count of
        # unbudgeted searches, hashed: a change that moves any count or
        # witness of these trees changes the digest.  The tree digest holds
        # only what the tree itself fixes (verdict, witness masks, nodes and
        # degree-cap prunes), so it stays put when the rows a node lists,
        # and so its attempts, change while the nodes it expands do not.
        # Without coverage every extendable row is built and tried, so the
        # counts of those searches have their own digest
        rows, tree, uncovered = [], [], []

        def case(m, n, t, off=frozenset()):
            cfg = SearchConfig(disabled_rules=off)
            out = arrows(ArrowingInstance(m, n, t), cfg)
            verdict, masks, nodes, attempts, prunes = fingerprint(out)
            rows.append([m, n, t, sorted(off), verdict, masks, nodes, attempts, prunes])
            tree.append([m, n, t, sorted(off), verdict, masks, nodes,
                         prunes[RULE_DEGREE_CAP]])
            coverage_on = cfg.enabled(RULE_COVERAGE) and m >= t
            if not coverage_on:
                uncovered.append(rows[-1])
            # every row tried is a coverage prune or a child node; the root
            # is a node but no row, and a root the mixed bound prunes (t rows
            # of degree at most the cap 2t - 1 leave t columns uncovered) is
            # the only node and one coverage prune
            root_pruned = (coverage_on and cfg.enabled(RULE_DEGREE_CAP)
                           and m > t and t * (2 * t - 1) <= n - t)
            assert attempts == nodes - 1 + prunes[RULE_COVERAGE] - root_pruned, (m, n, t, off)

        grid = [(m, n) for m in range(1, 7) for n in range(1, 9)]
        for t in (1, 2, 3):
            for m, n in grid:
                case(m, n, t)
            for m, n in grid:
                if m * n <= 20:
                    for rule in PRUNE_RULES:
                        case(m, n, t, frozenset({rule}))
                if m * n <= 12:
                    case(m, n, t, frozenset(PRUNE_RULES))
        for m, n, t in ((8, 19, 4), (8, 20, 4), (6, 23, 4), (7, 12, 4), (5, 40, 4),
                        (6, 39, 5), (6, 29, 5), (7, 100, 2), (3, 8, 2)):
            case(m, n, t)
        for m, t, n_limit in ((6, 5, 30), (7, 3, 12), (6, 4, 24)):
            record = find_br_m(m, t, n_limit)
            masks = record.certificate.graph.row_masks if record.certificate else None
            rows.append([m, t, n_limit, record.status, record.value, record.bound, masks])
            tree.append(rows[-1])

        assert len(rows) == len(tree) == 639
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == (
            "bb8ad8cf9d60466654c0129772c5bae0be4dab877d911e6b78f0ce9fd4bc2373"
        ), digest
        digest = hashlib.sha256(json.dumps(tree).encode()).hexdigest()
        assert digest == (
            "275cb94615674c6821ba26a7f01a3d249c02d1052e6fd94ad5d6cf0de0b5c193"
        ), digest
        assert len(uncovered) == 273
        digest = hashlib.sha256(json.dumps(uncovered).encode()).hexdigest()
        assert digest == (
            "5a3daea4aef24a5e87145610355e7115b0f50ae6bc7da9f459182dc44a0942c4"
        ), digest

    def test_candidate_order(self, monkeypatch):
        # at every node the candidates are exactly the C4-compatible (and, with
        # canonical-order on, interval-prefix) rows up to the degree limit that
        # take at least ``need`` columns outside ``tight``, the smallest union
        # of t-1 assigned rows; they are listed degree-descending then
        # column-lex-descending.  The canonical-order prunes are the rows
        # among them tying the last row's degree that sort above it
        original = _Worker.candidates
        checked = unbuilt = at_floor = over_limit = 0

        def checked_candidates(worker, rows, intervals, limit, tight, need):
            nonlocal checked, unbuilt, at_floor, over_limit
            checked += 1
            n, t, canonical = worker.n, worker.t, worker.canonical_on
            # the limit: the degree cap, and the last row's degree when rows
            # are generated in canonical order
            want_limit = degree_cap(worker.m, n, t) if worker.cap_on else n
            if canonical and rows:
                want_limit = min(want_limit, rows[-1].bit_count())
            assert limit == want_limit, rows
            # the deficit: joined to a union of t-1 assigned rows, a row needs
            # n - t + 1 columns covered, or t columns stay uncovered
            unions = []
            if worker.coverage_on:
                unions = [reduce(or_, subset, 0) for subset in combinations(rows, t - 1)]
            if unions:
                smallest = min(union.bit_count() for union in unions)
                assert tight in unions and tight.bit_count() == smallest, rows
                assert need == n - t + 1 - smallest, rows
            else:
                assert (tight, need) == (0, 0), rows
            over_limit += need > limit

            out, tied = original(worker, rows, intervals, limit, tight, need)

            intervals = [(0, n)]
            for row in rows if canonical else ():
                intervals = _refine_intervals(intervals, row)
            expected, above = [], 0
            for mask in range(1 << n):
                if mask.bit_count() > limit or any((mask & r).bit_count() > 1 for r in rows):
                    continue
                if canonical and _refine_intervals(intervals, mask) is None:
                    continue
                if (mask & ~tight).bit_count() < need:
                    unbuilt += 1
                    # the old degree floor, need itself, let this row through
                    at_floor += mask.bit_count() >= need
                elif (canonical and rows and mask.bit_count() == rows[-1].bit_count()
                        and not _lex_le(mask, rows[-1])):
                    above += 1
                else:
                    expected.append(mask)
            expected.sort(key=lambda mask: (-mask.bit_count(), columns_from_mask(mask)))
            assert out == expected, rows
            assert tied == above, rows
            return out, tied

        monkeypatch.setattr(_Worker, "candidates", checked_candidates)
        configs = [SearchConfig()] + [
            SearchConfig(disabled_rules=frozenset({rule})) for rule in PRUNE_RULES
        ]
        for m, n, t in ((5, 6, 2), (4, 6, 3), (6, 7, 3)):
            for cfg in configs:
                arrows(ArrowingInstance(m, n, t), cfg)
        # these reach a deficit above the limit; without coverage or
        # canonical-order their trees grow to tens of thousands of nodes and
        # more, so those two rules stay on
        small = [cfg for cfg in configs
                 if cfg.enabled(RULE_COVERAGE) and cfg.enabled(RULE_CANONICAL)]
        for m, n, t in ((7, 8, 3), (8, 10, 4)):
            for cfg in small:
                arrows(ArrowingInstance(m, n, t), cfg)
        assert checked > 1000
        # rows below the deficit are never built, some of them at or above
        # the old degree floor
        assert unbuilt > 0
        assert at_floor > 0
        # a deficit above the limit: no row is built
        assert over_limit > 0

    def test_early_return_counts_exact(self):
        # a search that returns through a child, on a good leaf or a budget
        # trip, has tried only the rows built before that child and the
        # child itself
        cases = (
            (3, 3, 2, None, NOT_ARROWS, 4, 3, 0, 0, 0),
            (4, 3, 2, None, NOT_ARROWS, 5, 5, 0, 1, 0),
            (4, 5, 2, None, NOT_ARROWS, 5, 4, 1, 0, 0),
            (5, 3, 2, None, NOT_ARROWS, 10, 12, 0, 3, 1),
            (6, 3, 2, None, NOT_ARROWS, 11, 14, 0, 4, 1),
            (4, 7, 2, 2, BUDGET_EXHAUSTED, 2, 2, 1, 0, 0),
            (8, 12, 4, 8, BUDGET_EXHAUSTED, 8, 14, 1, 6, 0),
        )
        for m, n, t, budget, verdict, nodes, attempts, cap, coverage, canonical in cases:
            out = arrows(ArrowingInstance(m, n, t), SearchConfig(node_budget=budget))
            assert out.verdict == verdict, (m, n, t)
            assert (out.stats.nodes, out.stats.attempts) == (nodes, attempts), (m, n, t)
            assert out.stats.prunes == {
                RULE_DEGREE_CAP: cap,
                RULE_PAIR_BUDGET: 0,
                RULE_COVERAGE: coverage,
                RULE_CANONICAL: canonical,
            }, (m, n, t)


class TestAblation:
    def test_each_rule_soundness_spot(self):
        for m, n in ((3, 3), (4, 4), (3, 5)):
            want = arrows(ArrowingInstance(m, n, 2)).verdict
            for rule in PRUNE_RULES:
                cfg = SearchConfig(disabled_rules=frozenset({rule}))
                assert arrows(ArrowingInstance(m, n, 2), cfg).verdict == want

    def test_pair_budget_is_a_no_op(self):
        # generation already keeps column pairs disjoint, so the rule never fires
        off = SearchConfig(disabled_rules=frozenset({RULE_PAIR_BUDGET}))
        for t in (2, 3):
            for m in range(2, 8):
                for n in range(2, 10):
                    inst = ArrowingInstance(m, n, t)
                    default = arrows(inst)
                    assert default.stats.prunes[RULE_PAIR_BUDGET] == 0, (m, n, t)
                    assert fingerprint(arrows(inst, off)) == fingerprint(default), (m, n, t)

    def test_all_rules_disabled_pure_enumeration(self):
        cfg = SearchConfig(disabled_rules=frozenset(PRUNE_RULES))
        assert arrows(ArrowingInstance(3, 3, 2), cfg).verdict == (
            ARROWS if arrows_oracle(3, 3, 2) else NOT_ARROWS
        )
        assert arrows(ArrowingInstance(4, 4, 2), cfg).verdict == NOT_ARROWS


class TestFindBrM:
    def test_nonexistent(self):
        record = find_br_m(5, 5, 100)
        assert record.status == NONEXISTENT
        assert record.certificate is not None and record.certificate.valid

    def test_m4_t2_matches_independent_oracle(self):
        # scan with the pairwise-compatibility oracle, then require agreement
        expected = None
        for n in range(2, 11):
            if arrows_oracle_t2(4, n):
                expected = n
                break
        assert expected is not None
        record = find_br_m(4, 2, 10)
        assert record.status == EXACT
        assert record.value == expected
        assert record.certificate is not None
        assert record.certificate.valid
        assert record.certificate.graph.n == expected - 1

    def test_limit_reached_gives_lower_bound(self):
        record = find_br_m(4, 2, 3)
        assert record.status == LOWER_BOUND
        assert record.bound == 4

    def test_budget_gives_lower_bound(self):
        record = find_br_m(4, 2, 10, SearchConfig(node_budget=2))
        assert record.status == LOWER_BOUND

    def test_validation(self):
        with pytest.raises(UsageError):
            find_br_m(4, 2, 0)

    def test_scan_holds_a_witness_before_arrows(self):
        # the scan starts at n = t, where m > t rows each taking only the
        # first column form a good coloring, so the first decision never
        # arrows and an exact record always carries the witness at n - 1
        configs = [SearchConfig()] + [
            SearchConfig(disabled_rules=frozenset({rule})) for rule in PRUNE_RULES
        ]
        for t in (1, 2, 3):
            for m in range(t + 1, 8):
                assert verify_good_coloring(
                    BipartiteGraph.from_rows(m, t, [[0]] * m), t
                ).valid, (m, t)
                for cfg in configs:
                    out = arrows(ArrowingInstance(m, t, t), cfg)
                    assert out.verdict == NOT_ARROWS, (m, t, cfg.disabled_rules)
                record = find_br_m(m, t, 20)
                assert record.status == EXACT, (m, t)
                assert record.certificate.valid, (m, t)
                assert record.certificate.graph.n == record.value - 1, (m, t)

    def test_published_registry_rows_reproduced(self):
        # the scan reproduces the full published (2,2;3,3) row set and the
        # fast (2,2;4,4) rows, searched from scratch
        from biramsey.table import build_table

        values = {
            (entry.t, entry.m): entry.value
            for entry in build_table()
            if entry.left == 2
        }
        for m in (2, 3):
            assert find_br_m(m, 3, 16).status == NONEXISTENT
        for m in (4, 5, 6, 7, 8):
            record = find_br_m(m, 3, 16)
            assert record.status == EXACT
            assert record.value == values[(3, m)], m
            assert record.certificate.valid
            assert record.certificate.graph.n == record.value - 1
        for m, want in ((5, 26), (6, 22), (7, 22)):
            record = find_br_m(m, 4, 30)
            assert record.status == EXACT
            assert record.value == values[(4, m)] == want, m

    def test_published_value_m8_t4_reproduced(self):
        # heavier row, about 10 s: the published m=8, t=4 value
        record = find_br_m(8, 4, 20, SearchConfig(time_budget=600.0))
        assert record.status == EXACT
        assert record.value == 16
        assert record.certificate.valid
