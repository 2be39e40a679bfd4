"""Arrowing decisions by pruned exhaustive search over C4-free subgraphs.

This module answers, exactly: does every subgraph of K_{m,n} contain K_{2,2}
or have K_{t,t} in its bipartite complement?  (That is the *standard*
arrowing sense; ARROWS = no good coloring exists.)  The search extends row
by row over C4-free assignments, with three independently toggleable
pruning rules:

* degree-cap: in a good coloring no row may have degree >= 2t once m >= t+1
  and n >= 2t (see ``degree_cap``);
* coverage: a t-subset of already-assigned rows that leaves >= t columns
  uncovered is final evidence of K_{t,t} in the complement, and subsets
  that need future rows are bounded once, at the one size that can prune;
* canonical-order: orderly generation; rows non-increasing in (degree, then
  column lex order with smaller columns more significant), and new columns
  are always the smallest unused indices.

A fourth name, pair-budget, is accepted but prunes nothing: rows of a C4-free
graph occupy disjoint column pairs, so no candidate can overflow C(n,2), and
the row generator already emits only rows that meet each earlier row in at
most one column.  It is kept so ``disabled_rules`` and ``--no-prune`` accept
it; its prune count is always 0.

The search is one serial depth-first pass from the root.  Its state is the
argument list of ``_Worker._dfs``: three immutable tuples, the assigned
rows, the runs of interchangeable columns (with the rows incident to each)
and the column unions of the j-subsets of rows for j < t.  A node receives
its parent's runs and unions and works out everything else from its rows;
a leaf only verifies itself.  An inner node's degree limit for the next row
is its own row degree under canonical-order, else the degree cap (n with
degree-cap off).  That is exact: under canonical-order each row's degree is
at most the first row's, itself at most the cap.  The node returns when its
floor (below) is above its limit, which only the root can meet; otherwise
it extends its unions by its own row, takes ``tight`` (below) from them,
refines the runs by its row and builds its candidates.  Nothing is
restored on return.

Rows that cannot pass the deficit or the floor are never built, nor rows
whose child could not pass its own deficit.  Let ``tight`` be the first
union of t-1 assigned rows with the fewest columns, in the order ``unions``
lists them (colex order of the row subsets): a row with fewer than
need = n - t + 1 - |tight| columns outside it joins those rows in covering
at most n - t columns, leaving a complement K_{t,t}.  A next row meets each
assigned row in at most one column, and its columns outside ``tight`` lie in
none of those t-1 rows, so it has at most len(rows) - t + 1 + unused of
them, ``unused`` being the columns no assigned row takes.  A node whose need
exceeds that has no child, and its parent decides so where it emits the
node's row: with k rows and U the columns they take, the node's need
exceeds that bound exactly when its ``tight`` has fewer than |U| - k
columns.  That ``tight`` is the parent's or one of the node's new unions, a
union of t-2 of the parent's rows joined by the new row.  The row's
never-used columns add as much to |U| as to each new union, so they only
count against the parent's ``tight``, which caps how many a row may take,
and each union of t-2 rows passes or fails the rest of the row whatever
their number.  The floor (``_Worker._floor``) is the lowest degree of a
next row whose child still passes the mixed coverage bound, which reads
only the degrees of the child's rows and its degree limit and can only get
worse as the new row's degree falls.  A parent builds no row below its
floor, and then the child's floor is at most the child's limit, so every
non-leaf node the search enters builds its candidates, except a root whose
floor is above its limit.  So ``candidates`` takes ``tight``, ``need``,
the floor and the unions of t-2 rows.  It generates a row as interval
columns plus a block of never-used columns, which lie outside every union,
so it tracks how many of the interval columns lie outside ``tight``, never
enters a branch none of whose rows can reach ``need``, and drops the rows
below the deficit or the floor, and those whose child fails its own
deficit, where they are emitted.  A branch can still add at most one
column outside ``tight`` per assigned row that meets a later pool outside
``tight`` and that the branch has not met yet (the same one-meeting
argument, so pools that share a row count once), plus the never-used
columns.  The rows it builds are still tested against every final union.
The counts are those of the rows tried, which are the rows built (see
``SearchStats``).

Disabling every rule leaves a sound pure enumeration.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .core import BipartiteGraph, UsageError, check_sizes
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
        check_sizes(m=self.m, n=self.n, t=self.t)


@dataclass(frozen=True)
class SearchConfig:
    """Budgets and per-rule pruning toggles (for ablation).

    Each budget applies to one ``arrows`` decision: ``find_br_m`` gives every
    n it scans a fresh budget; a search the node budget stops reports exactly
    that many nodes.
    ``threads`` is validated but does not change the search, which always
    runs serially; it is reserved for a later parallel backend.
    With canonical-order disabled, a node builds all of its rows before it
    tries its first child, and neither budget bounds the time or memory of
    that step (6x39 at t=5 builds C(39, 9) rows at the root).
    """

    node_budget: int | None = None  # max search nodes expanded, total
    time_budget: float | None = None  # wall-clock seconds
    threads: int = 1
    disabled_rules: frozenset = frozenset()

    def __post_init__(self):
        check_sizes(threads=self.threads)
        # a fractional node budget would never be met
        if self.node_budget is not None:
            check_sizes(node_budget=self.node_budget)
        secs = self.time_budget
        if secs is not None:
            # True is no number of seconds (False fails > 0), a NaN deadline
            # would never trip, and an int too large for a float would
            # overflow the deadline
            try:
                valid = isinstance(secs, (int, float)) and secs is not True and float(secs) > 0
            except OverflowError:
                valid = False
            if not valid:
                raise UsageError(f"time budget must be positive float seconds, got {secs!r}")
            object.__setattr__(self, "time_budget", float(secs))
        rules = self.disabled_rules
        # a string is iterable, but "coverage" is no set of rule names
        collection = isinstance(rules, Iterable) and not isinstance(rules, (str, bytes))
        if not (collection and set(rules) <= set(PRUNE_RULES)):
            raise UsageError(f"disabled rules must be names in {PRUNE_RULES}, got {rules!r}")
        object.__setattr__(self, "disabled_rules", frozenset(rules))

    def enabled(self, rule: str) -> bool:
        return rule not in self.disabled_rules


@dataclass(frozen=True)
class SearchStats:
    """What one decision did; every count is exact and repeats run to run.

    ``nodes`` is the search nodes expanded, the root included; no row below
    the floor, or whose child fails its own column deficit, is built, so
    every node but a leaf builds its candidates, except a root whose floor
    is above its limit.  ``attempts`` is the rows built and tried as the
    next row of a node.  ``prunes`` maps each rule to its count:
    ``coverage`` is the tried rows a final union rejects;
    ``canonical-order`` is the rows of the last row's degree that sort
    above it, among the rows that meet the column deficit and whose child
    can reach its own; ``degree-cap`` is the inner nodes whose degree limit
    the cap lowered: the root under canonical-order, and every inner node
    without it; ``pair-budget`` is always 0.  ``elapsed`` is wall seconds.
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
    check_sizes(m=m, n=n, t=t)
    if m >= t + 1 and n >= 2 * t:
        return 2 * t - 1
    return n


def nonexistence_criterion(m: int, t: int) -> bool:
    """True iff m <= t, in which case star_witness(m, n) is good for every n.

    The star's complement has only m - 1 <= t - 1 nonempty rows, so it can
    never host K_{t,t}; no n arrows, hence no finite value exists.
    """
    check_sizes(m=m, t=t)
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


def is_canonical_assignment(g: BipartiteGraph) -> bool:
    """True iff ``g`` is canonical, the only form orderly generation builds.

    Canonical means: rows non-increasing in (degree, then column lex order
    with smaller columns more significant), every never-seen column entering
    as the smallest unused index, and each row consuming interchangeable
    columns in label order (the ordered-partition prefix rule, which makes
    the representative unique per column relabelling class up to column
    automorphisms).  This is the definition the orbit tests check: each
    class of C4-free graphs must keep at least one canonical member.  One
    pass over the rows; it does not check that ``g`` is C4-free, and it
    shares only ``_lex_le`` with the engine's row generator.
    """
    intervals = [(0, g.n)]
    last = None
    for mask in g.row_masks:
        intervals = _refine_intervals(intervals, mask)
        if intervals is None:
            return False
        if last is not None:
            d_new, d_last = mask.bit_count(), last.bit_count()
            if d_new > d_last or (d_new == d_last and not _lex_le(mask, last)):
                return False
        last = mask
    return True


class _BudgetExceeded(Exception):
    pass


class _Worker:
    """One deterministic depth-first search.  The search position is the
    arguments of ``_dfs``, the immutable ``rows`` and the ``intervals`` and
    ``unions`` built from them (see the module docstring); a node works out
    the rest itself.  The worker holds only the instance, the root's degree
    limit, the rule toggles, the budgets and the counts."""

    def __init__(self, inst: ArrowingInstance, cfg: SearchConfig):
        self.m, self.n, self.t = inst.m, inst.n, inst.t
        self.root_limit = (
            degree_cap(inst.m, inst.n, inst.t) if cfg.enabled(RULE_DEGREE_CAP) else inst.n
        )
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

    def _floor(self, rows: tuple[int, ...], limit: int) -> int:
        """The lowest degree of a row after ``rows`` whose child passes the
        mixed coverage bound; limit + 1 when none does, 0 when it is a leaf.

        The bound: j assigned rows and t - j >= 1 of the child's future rows,
        each of degree at most its limit fb, cover at most the j degrees plus
        (t - j) * fb columns, which must exceed n - t.  Under canonical-order
        fb is the new row's degree d, no more than any assigned degree, so
        the fewest assigned rows bind: the last r rows and the new row with
        t - r - 1 future rows, covering s + (t - r) * d, and the floor is the
        least d that takes this above n - t.  Without it fb is the constant
        ``limit``, at least every degree, so the most bind: the t - 1 rows of
        least degree.  Either way the bound only gets worse as d falls.

        Only the root can have its floor above its limit.  Under
        canonical-order a parent builds a row of degree d only when
        s + (t - r) * d > n - t, and the child's check at d, its limit, sums
        the same: its last r + 1 rows, s + d, plus (t - r - 1) * d, or t * d
        on both sides where no assigned row binds.  Without it a next row of
        degree ``limit`` leaves the sum unchanged, as it joins the t - 1
        least degrees only in place of a future row, which counted ``limit``
        too; so it passes whenever the child's own row did.
        """
        t, n = self.t, self.n
        future = self.m - len(rows) - 1  # rows still to come below the child
        if future <= 0:
            return 0
        if self.canonical_on:
            r = t - future - 1 if t > future else 0
            s = sum(map(int.bit_count, rows[len(rows) - r :]))
            floor = (n - t - s) // (t - r) + 1
            return floor if floor > 0 else 0
        degrees = sorted(row.bit_count() for row in rows)[: t - 1]
        for d in range(limit + 1):
            least = sorted(degrees + [d])[: t - 1]
            if sum(least) + (t - len(least)) * limit > n - t:
                return d
        return limit + 1

    # -- candidate generation -------------------------------------------

    def candidates(
        self,
        rows: tuple[int, ...],
        intervals: tuple[tuple[int, int, int], ...],
        limit: int,
        floor: int,
        tight: int | None,
        need: int,
        lower: tuple[int, ...],
    ) -> list[list[int]]:
        """Extendable row masks after ``rows`` of degree ``floor`` to ``limit``
        with at least ``need`` columns outside ``tight`` (None when there is
        no union of t - 1 rows) and whose child, unless it is a leaf, can
        reach its own column deficit, in one bucket per degree (``by_deg[d]``
        for d = 0..limit, empty below the floor), each column-lex-descending.
        ``lower`` is the unions of t - 2 of ``rows`` that the child joins to
        its row, empty with coverage off.  Adds its canonical-order prunes,
        counted among the rows it would otherwise build, to ``self.prunes``.

        No sort is needed: within one degree no candidate extends another, so
        emitting each subset after its extensions, taken in increasing column
        order, already lists each degree in column-lex-descending order.
        A branch none of whose rows can reach ``need`` columns outside
        ``tight`` is never entered: that is when the assigned rows that meet
        its later pools outside ``tight``, and that it has not met, are too
        few, since a row takes at most one column of each assigned row.  An
        emission point first drops the rows below the deficit or the floor,
        then those whose child fails its own deficit (see the module
        docstring): all of them when a union in ``lower`` fails its pool
        part, else those with more never-used columns than ``tight`` allows.
        With canonical-order on, ``limit`` is the last row's degree, and the
        rows of that degree that sort above the last row come first in its
        bucket: each is a canonical-order prune, until one passes and so do
        all later ones.
        """
        by_deg: list[list[int]] = [[] for _ in range(limit + 1)]
        tied = 0
        # the row no top-degree row may sort above, until one does not
        last = rows[-1] if self.canonical_on and rows else None

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

        # the child's own deficit: a child of k1 < m rows has a deficit no
        # next row can reach when its first smallest union of t - 1 rows,
        # ``tight`` or a union S in ``lower`` joined by its row, has fewer
        # than |U| - k1 columns, U the columns the child's rows take (see the
        # module docstring).  No such row is emitted.  A row's never-used
        # columns add to |U| and to |S ∪ row| alike, so they can only fail
        # ``tight``, past ``spare`` of them.  Under canonical-order they are
        # the new block, so ``spare`` caps ``max_new``, and S fails every row
        # through a pool part P or none: when |S ∪ P| < |U| - k1.  That needs
        # |S| < |U| - k1 and, as P meets each of S's t - 2 rows at most once,
        # |P| < ``sdoom``.  The smallest S, tried first, fail most often.
        # Without canonical-order P may hold never-used columns, ``fresh``;
        # each S takes them too, and so does the deficit, and every emission
        # point is tested
        k1 = len(rows) + 1
        sdoom = spare = fresh = deficit = 0
        if k1 < self.m and (tight is not None or lower):
            if self.canonical_on:
                used = u if max_new else self.n
            else:
                fresh = ((1 << self.n) - 1) & ~reduce(or_, rows, 0)
                used = self.n - fresh.bit_count()
            deficit = used - k1
            spare = tight.bit_count() - deficit if tight is not None else self.n
            max_new = spare if spare < max_new else max_new
            lower = sorted(
                [s | fresh for s in lower if s.bit_count() < deficit], key=int.bit_count
            )
            if not self.canonical_on:
                sdoom = limit + 1
            elif lower:
                sdoom = deficit + self.t - 2 - lower[0].bit_count()
            deficit += fresh.bit_count()
        tight = tight or 0
        pools = [
            (1 << start, incidence, not (tight >> start) & 1)
            for start, _length, incidence in intervals
        ]
        # avail[i]: the assigned rows that meet a pool i or later outside
        # ``tight``, and a bit of its own (above the row bits) for such a
        # pool in no assigned row, which only happens with canonical-order
        # off.  A row meets each assigned row in at most one column, so a
        # branch past pool i - 1 adds at most one column outside ``tight``
        # per bit of avail[i] it has not met, plus the new columns
        avail = [0] * (len(pools) + 1)
        for i in range(len(pools) - 1, -1, -1):
            _cbit, incidence, outside = pools[i]
            avail[i] = avail[i + 1]
            if outside:
                avail[i] |= incidence or 1 << (self.m + i)

        def rec(idx: int, omask: int, odeg: int, rows_hit: int, out: int) -> None:
            # ``out``: the columns of ``omask`` outside ``tight``; ``short``:
            # how many more a row built from here must take
            nonlocal tied, last
            room = limit - odeg
            short = need - out
            if room:
                for body in range(idx, len(pools)):
                    # no row through pool ``body`` reaches ``need`` when the
                    # pool and room - 1 more columns fall short, or the pool
                    # and what avail allows after it
                    cbit, incidence, outside = pools[body]
                    if incidence & rows_hit or outside + room <= short:
                        continue
                    hit = rows_hit | incidence
                    if short - outside > (avail[body + 1] & ~hit).bit_count() + max_new:
                        continue
                    rec(body + 1, omask | cbit, odeg + 1, hit, out + outside)
            hi = room if room < max_new else max_new
            # each new column lies outside ``tight``
            lo = floor - odeg if floor - odeg > short else short
            if lo < 0:
                lo = 0
            if hi < lo:
                return
            if odeg < sdoom:
                for s in lower:
                    if (s | omask).bit_count() < deficit:
                        return
                if (omask & fresh).bit_count() > spare:
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
        self.prunes[RULE_CANONICAL] += tied
        return by_deg

    def _dfs(
        self,
        rows: tuple[int, ...],
        intervals: tuple[tuple[int, int, int], ...],
        unions: tuple[tuple[int, ...], ...],
    ) -> WitnessCertificate | None:
        """The certificate of the first good coloring at or below this node, or None.

        ``intervals`` and ``unions`` describe ``rows[:-1]``, the parent's
        rows; the node extends both by its own row.  Every entry is a node,
        the root too: it checks the node budget and the deadline, once,
        before it counts itself, and a leaf returns its certificate when it
        is a good coloring.  An inner node works out its degree limit (see
        the module docstring; a limit below n is the degree cap's, and
        counted as its prune, except where canonical-order set it to the
        node's own row degree) and its floor, and returns when the floor is
        above the limit, which only the root can meet.  Otherwise it extends
        its unions, takes ``tight`` from its unions of t - 1 rows,
        refines the intervals and builds its candidates.  It never returns
        for its column deficit: its parent only builds rows whose child can
        reach it.
        """
        if self.nodes == self.node_limit:
            raise _BudgetExceeded
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _BudgetExceeded
        self.nodes += 1
        m, n, t = self.m, self.n, self.t
        if len(rows) == m:
            cert = verify_good_coloring(BipartiteGraph(m, n, rows), t)
            return cert if cert.valid else None
        limit = rows[-1].bit_count() if rows and self.canonical_on else self.root_limit
        if limit < n and not (rows and self.canonical_on):
            self.prunes[RULE_DEGREE_CAP] += 1
        coverage_on = self.coverage_on
        floor = self._floor(rows, limit) if coverage_on else 0
        if floor > limit:
            return None

        row = rows[-1] if rows else 0
        if rows and coverage_on and t > 1:
            # the node's row joins each of the parent's unions of one row fewer
            extended = [unions[0]]
            for j in range(1, t):
                extended.append(unions[j] + tuple([uv | row for uv in unions[j - 1]]))
            unions = tuple(extended)
        # a t-subset of assigned rows leaving >= t columns uncovered is final,
        # whatever rows follow.  A row with fewer than ``need`` columns outside
        # ``tight``, the first smallest final union in the order ``unions``
        # lists them, leaves t columns uncovered with it, so candidates()
        # never builds such rows
        finals = unions[t - 1] if coverage_on else ()
        tight = min(finals, key=int.bit_count, default=None)
        uncovered_limit = n - t
        need = uncovered_limit + 1 - tight.bit_count() if tight is not None else 0

        if rows:
            # the node's own intervals: refine the parent's by the last row
            row_bit = 1 << (len(rows) - 1)
            refined = []
            for start, length, incidence in intervals:
                c = ((row >> start) & ((1 << length) - 1)).bit_count()
                if c:
                    refined.append((start, c, incidence | row_bit))
                if length - c:
                    refined.append((start + c, length - c, incidence))
            intervals = tuple(refined)

        lower = unions[t - 2] if coverage_on and t > 1 else ()
        by_deg = self.candidates(rows, intervals, limit, floor, tight, need, lower)
        for degree in range(limit, floor - 1, -1):
            for mask in by_deg[degree]:
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
    try:
        found = worker.run()
        verdict = ARROWS if found is None else NOT_ARROWS
    except _BudgetExceeded:
        found, verdict = None, BUDGET_EXHAUSTED

    elapsed = time.perf_counter() - start
    stats = SearchStats(worker.nodes, worker.attempts, worker.prunes, elapsed)
    return SearchOutcome(verdict, stats, found)


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
    check_sizes(n_limit=n_limit)
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
            bound, note = n, f"budget exhausted at n={n}"
            break
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
    else:
        bound, note = n_limit + 1, f"no arrowing up to n={n_limit}"
    return KnownValueRecord(
        m=m,
        t=t,
        status=LOWER_BOUND,
        provenance=SEARCHED,
        bound=bound,
        certificate=prev_cert,
        note=note,
    )
