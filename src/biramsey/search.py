"""Arrowing decisions by pruned exhaustive search over C4-free subgraphs.

This module answers, exactly: does every subgraph of K_{m,n} contain K_{2,2}
or have K_{t,t} in its bipartite complement?  (That is the *standard*
arrowing sense; ARROWS = no good coloring exists.)  The search extends row
by row over C4-free assignments, with three independently toggleable
pruning rules:

* degree-cap: in a good coloring no row may have degree >= 2t once m >= t+1
  and n >= 2t (see ``degree_cap``);
* coverage: a t-subset of already-assigned rows that leaves >= t columns
  uncovered is final evidence of K_{t,t} in the complement, and mixed
  subsets are bounded optimistically through the degree cap;
* canonical-order: orderly generation; rows non-increasing in (degree, then
  column lex order with smaller columns more significant), and new columns
  are always the smallest unused indices.

A fourth name, pair-budget, is accepted but prunes nothing: rows of a C4-free
graph occupy disjoint column pairs, so no candidate can overflow C(n,2), and
the row generator already emits only rows that meet each earlier row in at
most one column.  It is kept so ``disabled_rules`` and ``--no-prune`` accept
it; its prune count is always 0.

The search is one serial depth-first pass from the root.  Its state is the
argument list of ``_Worker._dfs``, three immutable tuples: the assigned
rows, the runs of interchangeable columns (with the rows incident to each),
and the column unions of the j-subsets of rows for j < t.  A node receives
its parent's runs and unions and checks itself on entry (the mixed coverage
bound, then the leaf verification); only a node that passes refines them by
its own last row, so a pruned child or a leaf never builds its state.
Nothing is restored on return.  Each node works out its next row's degree
limit once: the last row's degree under canonical-order, else n, lowered to
the degree cap.

Rows the tightest final union rejects are never built.  Let ``tight`` be a
union of t-1 assigned rows with the fewest columns: a row with fewer than
need = n - t + 1 - |tight| columns outside it joins those rows in covering at
most n - t columns, leaving a complement K_{t,t}.  So ``candidates`` takes
``tight`` and ``need`` and skips such rows.  It generates a row as interval
columns plus a block of never-used columns, which lie outside every union,
so it tracks how many of the interval columns lie outside ``tight``, never
enters a branch none of whose rows can reach ``need``, and drops the rest of
the short rows where they are emitted.  The rows it builds are still tested
against every final union.  The counts are those of the rows tried, which
are the rows built (see ``SearchStats``).

Disabling every rule leaves a sound pure enumeration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from .core import BipartiteGraph, UsageError, columns_from_mask, mask_from_columns
from .witnesses import (
    EXACT,
    LOWER_BOUND,
    NONEXISTENT,
    SEARCHED,
    VERIFIED_WITNESS,
    KnownValueRecord,
    WitnessCertificate,
    star_witness,
    verify_good_coloring,
)

ARROWS = "ARROWS"
NOT_ARROWS = "NOT_ARROWS"
BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"

RULE_DEGREE_CAP = "degree-cap"
RULE_PAIR_BUDGET = "pair-budget"  # implied by generation; accepted, never counts
RULE_COVERAGE = "coverage"
RULE_CANONICAL = "canonical-order"
PRUNE_RULES = (RULE_DEGREE_CAP, RULE_PAIR_BUDGET, RULE_COVERAGE, RULE_CANONICAL)


@dataclass(frozen=True)
class ArrowingInstance:
    """Parameters of one arrowing question: K_{m,n} vs (K_{2,2}, K_{t,t})."""

    m: int
    n: int
    t: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1 or self.t < 1:
            raise UsageError(f"need m, n, t >= 1, got m={self.m} n={self.n} t={self.t}")


@dataclass(frozen=True)
class SearchConfig:
    """Budgets and per-rule pruning toggles (for ablation).

    Each budget applies to one ``arrows`` decision: ``find_br_m`` gives every
    n it scans a fresh budget; a search the node budget stops reports exactly
    that many nodes.
    ``threads`` is validated but does not change the search, which always
    runs serially; it is reserved for a later parallel backend.
    """

    node_budget: int | None = None  # max search nodes expanded, total
    time_budget: float | None = None  # wall-clock seconds
    threads: int = 1
    disabled_rules: frozenset = frozenset()

    def __post_init__(self):
        if self.threads < 1:
            raise UsageError(f"threads must be >= 1, got {self.threads}")
        if self.node_budget is not None and self.node_budget < 1:
            raise UsageError("node budget must be >= 1")
        # written so that NaN fails too: a NaN deadline would never trip
        if self.time_budget is not None and not self.time_budget > 0:
            raise UsageError(f"time budget must be positive, got {self.time_budget}")
        unknown = set(self.disabled_rules) - set(PRUNE_RULES)
        if unknown:
            raise UsageError(f"unknown pruning rules: {sorted(unknown)}")
        object.__setattr__(self, "disabled_rules", frozenset(self.disabled_rules))

    def enabled(self, rule: str) -> bool:
        return rule not in self.disabled_rules


@dataclass(frozen=True)
class SearchStats:
    """What one decision did; every count is exact and repeats run to run.

    ``nodes`` is the search nodes expanded, the root included (a root the
    mixed coverage bound prunes still counts as one).  ``attempts`` is the
    rows built and tried as the next row of a node.  ``prunes`` maps each
    rule to its count: ``coverage`` is the tried rows a final union or the
    mixed bound rejects, plus a pruned root; ``canonical-order`` is the rows
    of the last row's degree that sort above it, among the rows that meet
    the column deficit; ``degree-cap`` is the inner nodes whose degree
    limit the cap lowered; ``pair-budget`` is always 0.  ``elapsed`` is
    wall seconds.
    """

    nodes: int
    attempts: int
    prunes: dict
    elapsed: float


@dataclass(frozen=True)
class SearchOutcome:
    """ARROWS with exhaustion stats, NOT_ARROWS with a verified witness, or budget."""

    verdict: str
    stats: SearchStats
    certificate: WitnessCertificate | None = None


def degree_cap(m: int, n: int, t: int) -> int:
    """Largest row degree a good coloring can have; n when no cap is asserted.

    With m >= t+1 rows and n >= 2t columns, a row x of degree >= 2t in a
    C4-free graph forces K_{t,t} in the complement: every other row meets
    N(x) in at most one column, so any t of the other rows leave at least
    t of N(x)'s columns untouched.  Hence the cap 2t - 1 in that regime.
    """
    if m < 1 or n < 1 or t < 1:
        raise UsageError(f"need m, n, t >= 1, got m={m} n={n} t={t}")
    if m >= t + 1 and n >= 2 * t:
        return 2 * t - 1
    return n


def nonexistence_criterion(m: int, t: int) -> bool:
    """True iff m <= t, in which case star_witness(m, n) is good for every n.

    The star's complement has only m - 1 <= t - 1 nonempty rows, so it can
    never host K_{t,t}; no n arrows, hence no finite value exists.
    """
    if m < 1 or t < 1:
        raise UsageError(f"need m, t >= 1, got m={m} t={t}")
    return m <= t


def _lex_le(a: int, b: int) -> bool:
    """Column-lex comparison of row masks: smaller columns are more significant,
    and having a column beats not having it."""
    if a == b:
        return True
    diff = a ^ b
    low = diff & -diff
    return (b & low) != 0


def _refine_intervals(
    intervals: list[tuple[int, int]], mask: int
) -> list[tuple[int, int]] | None:
    """Split column intervals by a row mask; None when the row is not canonical.

    The intervals partition the column labels into runs whose members are
    interchangeable given the rows placed so far.  A canonical row must take
    a *prefix* of every interval it meets (so interchangeable columns are
    consumed in label order); this subsumes the first-use rule, because the
    unused columns always form the trailing interval.
    """
    out = []
    for start, length in intervals:
        picked = (mask >> start) & ((1 << length) - 1)
        c = picked.bit_count()
        if picked != (1 << c) - 1:
            return None
        if c:
            out.append((start, c))
        if length - c:
            out.append((start + c, length - c))
    return out


def canonical_extension_ok(
    partial: BipartiteGraph | None,
    new_row: Iterable[int],
    n: int | None = None,
) -> bool:
    """True iff appending ``new_row`` keeps a canonical partial assignment canonical.

    Canonical means: rows non-increasing in (degree, then column lex order
    with smaller columns more significant), every never-seen column entering
    as the smallest unused index, and each row consuming interchangeable
    columns in label order (the ordered-partition prefix rule, which makes
    the representative unique per column relabelling class up to column
    automorphisms).  Assumes ``partial`` is itself canonical and that
    ``new_row`` shares at most one column with each of its rows.  Pass
    ``partial=None`` with ``n`` for a fresh instance.
    """
    if partial is None:
        if n is None:
            raise UsageError("need n when extending a fresh instance")
        width = n
        intervals = [(0, width)]
        last = None
    else:
        width = partial.n
        intervals = [(0, width)]
        for row_mask in partial.row_masks:
            intervals = _refine_intervals(intervals, row_mask)
            if intervals is None:
                return False  # partial was not canonical to begin with
        last = partial.row_masks[-1]
    mask = mask_from_columns(new_row, width)
    if _refine_intervals(intervals, mask) is None:
        return False
    if last is not None:
        d_new, d_last = mask.bit_count(), last.bit_count()
        if d_new > d_last:
            return False
        if d_new == d_last and not _lex_le(mask, last):
            return False
    return True


def is_canonical_assignment(g: BipartiteGraph) -> bool:
    """Whole-graph canonicality: every prefix passes canonical_extension_ok."""
    partial = None
    for i in range(g.m):
        row = columns_from_mask(g.row_masks[i])
        if not canonical_extension_ok(partial, row, n=g.n):
            return False
        partial = BipartiteGraph(i + 1, g.n, g.row_masks[: i + 1])
    return True


class _BudgetExceeded(Exception):
    pass


class _Worker:
    """One deterministic depth-first search.  The search position is the
    arguments of ``_dfs``, the immutable ``rows``, ``intervals`` and
    ``unions`` (see the module docstring); the worker holds only the
    instance, the rule toggles, the budgets and the counts."""

    def __init__(self, inst: ArrowingInstance, cfg: SearchConfig):
        self.m, self.n, self.t = inst.m, inst.n, inst.t
        self.cap = degree_cap(inst.m, inst.n, inst.t)
        self.cap_on = cfg.enabled(RULE_DEGREE_CAP)
        # with m < t no t-subset of rows exists, so coverage can never prune
        self.coverage_on = cfg.enabled(RULE_COVERAGE) and inst.m >= inst.t
        self.canonical_on = cfg.enabled(RULE_CANONICAL)
        self.deadline = time.monotonic() + cfg.time_budget if cfg.time_budget else None
        self.node_limit = cfg.node_budget

        self.nodes = 0
        self.attempts = 0
        self.prunes = {rule: 0 for rule in PRUNE_RULES}

    def run(self) -> WitnessCertificate | None:
        """Search from the root: the certificate of the first good coloring, or None."""
        # (start, length, incidence-over-assigned-rows) runs of interchangeable
        # columns, in label order.  With canonical-order on they start as one
        # run, and the never-used columns stay the last run; with it off every
        # column is its own run, so refinement only updates incidences.
        if self.canonical_on:
            intervals: tuple[tuple[int, int, int], ...] = ((0, self.n, 0),)
        else:
            intervals = tuple((c, 1, 0) for c in range(self.n))
        # unions[j] holds the column unions of all j-subsets of assigned rows;
        # extended only while coverage is on, the only rule that reads them
        unions: tuple[tuple[int, ...], ...] = ((0,),) + ((),) * (self.t - 1)
        return self._dfs((), intervals, unions)

    def _coverage_mixed_ok(self, rows: tuple[int, ...], fb: int) -> bool:
        # optimistic bound for t-subsets that still need future rows, each of
        # degree at most fb
        m, n, t = self.m, self.n, self.t
        k1 = len(rows)
        future = m - k1
        if future <= 0:
            return True
        ordered = sorted(row.bit_count() for row in rows)
        limit = n - t
        acc = 0
        top = min(t - 1, k1)
        j0 = t - future if t - future > 0 else 0
        for j in range(top + 1):
            if j > 0:
                acc += ordered[j - 1]
            if j < j0:
                continue
            if acc + (t - j) * fb <= limit:
                return False
        return True

    # -- candidate generation -------------------------------------------

    def candidates(
        self,
        rows: tuple[int, ...],
        intervals: tuple[tuple[int, int, int], ...],
        limit: int,
        tight: int,
        need: int,
    ) -> tuple[list[int], int]:
        """Extendable row masks after ``rows`` of degree at most ``limit`` with
        at least ``need`` columns outside ``tight``, ordered degree-descending
        then column-lex-descending; and the number of canonical-order prunes
        among the rows that meet the deficit.

        No sort is needed: within one degree no candidate extends another, so
        emitting each subset after its extensions, taken in increasing column
        order, already lists every degree in column-lex-descending order.
        A branch none of whose rows can reach ``need`` columns outside
        ``tight`` is never entered, and an emission point first drops the
        rows below the deficit.  With canonical-order on and the last row of
        degree ``limit``, the rows of that degree that sort above the last
        row come first: each is a canonical-order prune, until one passes and
        so do all later ones.
        """
        by_deg: list[list[int]] = [[] for _ in range(limit + 1)]
        tied = 0
        # the row no top-degree row may sort above, until one does not
        last = None
        if self.canonical_on and rows and rows[-1].bit_count() == limit:
            last = rows[-1]

        # a row takes the first column of some incidence-disjoint intervals
        # (pools) plus, with canonical-order on, a leading block of the
        # never-used columns, which are the last interval when any remain and
        # lie outside every union.  Each pool's columns share one incidence,
        # so they lie all inside ``tight`` or all outside it
        u = max_new = 0
        if self.canonical_on:
            start, length, incidence = intervals[-1]
            if not incidence:
                u, max_new = start, length
                intervals = intervals[:-1]
        pools = [
            (1 << start, incidence, not (tight >> start) & 1)
            for start, _length, incidence in intervals
        ]
        # reach[i]: the most columns outside ``tight`` that pools i and later
        # and the new columns can add, degree limit aside
        reach = [max_new] * (len(pools) + 1)
        for i in range(len(pools) - 1, -1, -1):
            reach[i] = reach[i + 1] + pools[i][2]

        def rec(idx: int, omask: int, odeg: int, rows_hit: int, out: int) -> None:
            # ``out``: the columns of ``omask`` outside ``tight``; ``short``:
            # how many more a row built from here must take
            nonlocal tied, last
            room = limit - odeg
            short = need - out
            if room:
                for body in range(idx, len(pools)):
                    # no row through pool ``body`` reaches ``need`` when
                    # the pool and what follows it, or the pool and room - 1
                    # more columns, fall short; reach only falls with body
                    if reach[body] < short:
                        break
                    cbit, incidence, outside = pools[body]
                    if incidence & rows_hit or outside + room <= short:
                        continue
                    rec(body + 1, omask | cbit, odeg + 1, rows_hit | incidence, out + outside)
            hi = room if room < max_new else max_new
            # each new column lies outside ``tight``
            lo = short if short > 0 else 0
            if hi < lo:
                return
            if hi == room and last is not None:
                # the widest row emitted here has the top degree
                if _lex_le(omask | (((1 << hi) - 1) << u), last):
                    last = None
                else:
                    tied += 1
                    hi -= 1
            for k in range(lo, hi + 1):
                by_deg[odeg + k].append(omask | (((1 << k) - 1) << u))

        rec(0, 0, 0, 0, 0)
        masks = [mask for bucket in reversed(by_deg) for mask in bucket]
        return masks, tied

    def _dfs(
        self,
        rows: tuple[int, ...],
        intervals: tuple[tuple[int, int, int], ...],
        unions: tuple[tuple[int, ...], ...],
    ) -> WitnessCertificate | None:
        """The certificate of the first good coloring at or below this node, or None.

        ``intervals`` and ``unions`` describe ``rows[:-1]``, the parent's
        rows; the node refines them by its own row only once its checks pass.
        The node's degree limit feeds both the mixed coverage bound and
        ``candidates``.  A node that passes the bound checks the node budget
        and the deadline, once, before it counts itself; a leaf returns its
        certificate when it is a good coloring.
        """
        m, n, t = self.m, self.n, self.t
        # the next row's degree limit, lowered to the degree cap
        limit = rows[-1].bit_count() if self.canonical_on and rows else n
        capped = self.cap_on and self.cap < limit
        if capped:
            limit = self.cap
        coverage_on = self.coverage_on
        if coverage_on and not self._coverage_mixed_ok(rows, limit):
            self.prunes[RULE_COVERAGE] += 1
            return None
        if self.nodes == self.node_limit:
            raise _BudgetExceeded
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _BudgetExceeded
        self.nodes += 1
        if len(rows) == m:
            cert = verify_good_coloring(BipartiteGraph(m, n, rows), t)
            return cert if cert.valid else None
        if capped:
            self.prunes[RULE_DEGREE_CAP] += 1

        if rows:
            # the node's own state: refine the parent's by the last row
            row, row_bit = rows[-1], 1 << (len(rows) - 1)
            refined = []
            for start, length, incidence in intervals:
                c = ((row >> start) & ((1 << length) - 1)).bit_count()
                if c:
                    refined.append((start, c, incidence | row_bit))
                if length - c:
                    refined.append((start + c, length - c, incidence))
            intervals = tuple(refined)
            if coverage_on:
                extended = [unions[0]]
                for j in range(1, t):
                    extended.append(unions[j] + tuple([uv | row for uv in unions[j - 1]]))
                unions = tuple(extended)

        # a t-subset of assigned rows leaving >= t columns uncovered is final,
        # whatever rows follow.  A row with fewer than ``need`` columns outside
        # the smallest final union leaves t columns uncovered with it, so
        # candidates() never builds such rows
        finals = unions[t - 1] if coverage_on else ()
        uncovered_limit = n - t
        tight = need = 0
        if finals:
            tight = min(finals, key=int.bit_count)
            need = uncovered_limit + 1 - tight.bit_count()

        masks, tied = self.candidates(rows, intervals, limit, tight, need)
        self.prunes[RULE_CANONICAL] += tied
        for mask in masks:
            self.attempts += 1
            for uv in finals:
                if (uv | mask).bit_count() <= uncovered_limit:
                    self.prunes[RULE_COVERAGE] += 1
                    break
            else:
                found = self._dfs(rows + (mask,), intervals, unions)
                if found is not None:
                    return found
        return None


def arrows(
    inst: ArrowingInstance,
    cfg: SearchConfig | None = None,
    seed: BipartiteGraph | None = None,
) -> SearchOutcome:
    """Decide K_{m,n} -> (K_{2,2}, K_{t,t}) in the standard arrowing sense.

    ARROWS means the canonical search space was exhausted with no good
    coloring; NOT_ARROWS returns the first good coloring found, verified
    before return; BUDGET_EXHAUSTED is returned when a node or time budget
    trips first, never a wrong verdict.  An optional ``seed`` graph is
    verified up front and short-circuits the search when it is already a
    good coloring.
    """
    if cfg is None:
        cfg = SearchConfig()
    start = time.perf_counter()
    base_prunes = {rule: 0 for rule in PRUNE_RULES}

    if seed is not None:
        if seed.m != inst.m or seed.n != inst.n:
            raise UsageError(
                f"seed is {seed.m}x{seed.n}, instance is {inst.m}x{inst.n}"
            )
        cert = verify_good_coloring(seed, inst.t)
        if cert.valid:
            stats = SearchStats(0, 0, base_prunes, time.perf_counter() - start)
            return SearchOutcome(NOT_ARROWS, stats, cert)

    worker = _Worker(inst, cfg)
    found = None
    budget_hit = False
    try:
        found = worker.run()
    except _BudgetExceeded:
        budget_hit = True

    elapsed = time.perf_counter() - start
    # the root counts as one node even when the coverage bound prunes it
    stats = SearchStats(max(worker.nodes, 1), worker.attempts, worker.prunes, elapsed)

    if found is not None:
        return SearchOutcome(NOT_ARROWS, stats, found)
    if budget_hit:
        return SearchOutcome(BUDGET_EXHAUSTED, stats)
    return SearchOutcome(ARROWS, stats)


def find_br_m(
    m: int, t: int, n_limit: int, cfg: SearchConfig | None = None
) -> KnownValueRecord:
    """Least n with ARROWS, scanning n upward (arrowing is monotone in n).

    Nonexistent cases short-circuit through the star construction.  A budget
    trip or an exhausted n_limit yields an honest lower-bound record.  The
    scan starts at n = t, where m > t rows that each take only the first
    column are a good coloring, so no ARROWS comes before a witness: an
    exact record always carries the good coloring found at n = value - 1.
    """
    if n_limit < 1:
        raise UsageError(f"n_limit must be >= 1, got {n_limit}")
    if nonexistence_criterion(m, t):
        cert = verify_good_coloring(star_witness(m, 2 * t), t)
        return KnownValueRecord(
            m=m,
            t=t,
            status=NONEXISTENT,
            provenance=VERIFIED_WITNESS,
            certificate=cert,
            note="m <= t: star construction",
        )
    prev_cert: WitnessCertificate | None = None
    for n in range(t, n_limit + 1):
        outcome = arrows(ArrowingInstance(m, n, t), cfg)
        if outcome.verdict == BUDGET_EXHAUSTED:
            return KnownValueRecord(
                m=m,
                t=t,
                status=LOWER_BOUND,
                provenance=SEARCHED,
                bound=n,
                certificate=prev_cert,
                note=f"budget exhausted at n={n}",
            )
        if outcome.verdict == ARROWS:
            return KnownValueRecord(
                m=m,
                t=t,
                status=EXACT,
                provenance=SEARCHED,
                value=n,
                certificate=prev_cert,
            )
        prev_cert = outcome.certificate
    return KnownValueRecord(
        m=m,
        t=t,
        status=LOWER_BOUND,
        provenance=SEARCHED,
        bound=n_limit + 1,
        certificate=prev_cert,
        note=f"no arrowing up to n={n_limit}",
    )
