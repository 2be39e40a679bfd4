"""Exact bipartite graphs stored as row bitmasks, plus biclique and coverage primitives.

A graph lives inside K_{m,n}: m row vertices, n column vertices, and row i
carries the set of columns it is adjacent to, stored as an int bitmask.
Every counting question this package asks (pairwise intersections, unions,
biclique containment) reduces to AND/OR/popcount on those masks, which keeps
the operations exact at any width Python ints support.

All indices are 0-based here; the witness file format and the CLI translate
to 1-based labels at the boundary.  Rows are packed into masks and unpacked
into columns only here, by ``mask_from_columns`` and ``columns_from_mask``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress, count
from math import comb
from typing import Iterable


class UsageError(ValueError):
    """An operation was called outside its contract (bad size, index or pattern)."""


def _is_size(value) -> bool:
    # a bool is an int, but True is no size; False already fails value >= 1
    return value is not True and isinstance(value, int) and value >= 1


def check_sizes(**named) -> None:
    """Raise UsageError naming every argument that is not an int >= 1.

    Every size, count and limit of the package (m, n, t, a scan limit, a
    node budget, a thread count) obeys this one rule.
    """
    for value in named.values():
        if not _is_size(value):
            bad = " ".join(f"{k}={v!r}" for k, v in named.items() if not _is_size(v))
            raise UsageError(f"need ints >= 1, got {bad}")


def check_index(size: int, name: str, *indices) -> None:
    """Raise UsageError unless every index is an int in 0..size-1; a bool is no index."""
    for i in indices:
        if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < size:
            raise UsageError(f"{name} index must be an int in 0..{size - 1}, got {i!r}")


def mask_from_columns(columns: Iterable[int], n: int) -> int:
    """Pack a set of column indices (each < n) into a bitmask.

    Each column sets one bit of a byte buffer, read as an int once at the
    end: OR-ing each bit into the int would copy it per column, quadratic
    on wide rows.
    """
    buf = bytearray((max(n, 0) + 7) >> 3)
    for c in columns:
        check_index(n, "column", c)
        buf[c >> 3] |= 1 << (c & 7)
    return int.from_bytes(buf, "little")


def columns_from_mask(mask: int) -> tuple[int, ...]:
    """Unpack a non-negative bitmask into an ascending tuple of column indices.

    One linear pass over the binary digits, lowest first: peeling one bit at
    a time would copy the whole int per column, quadratic on wide masks.
    """
    # the digits as bytes, each 0 a false selector and each 1 a true one
    digits = bin(mask)[:1:-1].replace("0", "\0").encode()
    return tuple(compress(count(), digits))


@dataclass(frozen=True)
class BicliqueSpec:
    """Complete bipartite pattern K_{s,t}: s on the row side, t on the column side."""

    s: int
    t: int

    def __post_init__(self):
        # Degenerate patterns are rejected rather than defined vacuously true.
        check_sizes(s=self.s, t=self.t)


@dataclass(frozen=True)
class CoverageReport:
    """How much of the column side a set of rows covers jointly."""

    row_subset: frozenset[int]
    covered: int
    uncovered: int


@dataclass(frozen=True)
class BipartiteGraph:
    """Subgraph of K_{m,n}; row i's neighbourhood is the bitmask ``row_masks[i]``."""

    m: int
    n: int
    row_masks: tuple[int, ...]

    def __post_init__(self):
        check_sizes(m=self.m, n=self.n)
        if len(self.row_masks) != self.m:
            raise UsageError(f"expected {self.m} rows, got {len(self.row_masks)}")
        full = (1 << self.n) - 1
        for i, mask in enumerate(self.row_masks):
            if mask < 0 or mask & ~full:
                raise UsageError(f"row {i} uses columns outside 0..{self.n - 1}")

    @classmethod
    def from_rows(cls, m: int, n: int, rows: Iterable[Iterable[int]]) -> "BipartiteGraph":
        """Build from m iterables of column indices (set semantics, 0-based)."""
        masks = tuple(mask_from_columns(r, n) for r in rows)
        return cls(m, n, masks)

    @classmethod
    def empty(cls, m: int, n: int) -> "BipartiteGraph":
        return cls(m, n, (0,) * m)

    @classmethod
    def complete(cls, m: int, n: int) -> "BipartiteGraph":
        return cls(m, n, ((1 << n) - 1,) * m)

    @property
    def rows(self) -> tuple[frozenset[int], ...]:
        """The row neighbourhoods as frozensets of column indices."""
        return tuple(frozenset(columns_from_mask(mask)) for mask in self.row_masks)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.row_masks)


def degree(g: BipartiteGraph, i: int) -> int:
    """Number of columns adjacent to row i."""
    check_index(g.m, "row", i)
    return g.row_masks[i].bit_count()


def max_row_degree(g: BipartiteGraph) -> int:
    """Maximum degree over the row side; 0 for an edgeless graph."""
    return max(mask.bit_count() for mask in g.row_masks)


def row_intersection_size(g: BipartiteGraph, i: int, j: int) -> int:
    """Size of the common neighbourhood of two distinct rows."""
    check_index(g.m, "row", i, j)
    if i == j:
        raise UsageError("row intersection needs two distinct rows")
    return (g.row_masks[i] & g.row_masks[j]).bit_count()


def is_c4_free(g: BipartiteGraph) -> bool:
    """True iff every pair of distinct rows shares at most one column.

    Equivalent to ``not contains_biclique(g, BicliqueSpec(2, 2))``; the two
    formulations are cross-checked by the test suite.
    """
    masks = g.row_masks
    for i, j in combinations(range(g.m), 2):
        if (masks[i] & masks[j]).bit_count() > 1:
            return False
    return True


def transpose(g: BipartiteGraph) -> BipartiteGraph:
    """Swap the two sides: column j of the result holds the rows adjacent to j."""
    columns: list[list[int]] = [[] for _ in range(g.n)]
    for i, mask in enumerate(g.row_masks):
        for j in columns_from_mask(mask):
            columns[j].append(i)
    return BipartiteGraph.from_rows(g.n, g.m, columns)


def complement(g: BipartiteGraph) -> BipartiteGraph:
    """Complement within K_{m,n}: edges flipped only across the bipartition."""
    full = g.full_mask
    return BipartiteGraph(g.m, g.n, tuple(full ^ mask for mask in g.row_masks))


def find_biclique(
    g: BipartiteGraph, spec: BicliqueSpec
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Find an embedding of K_{s,t} in g: (row indices, column indices), or None.

    Branches over row subsets while maintaining the running intersection of
    their column masks, pruning as soon as the intersection drops below t or
    too few rows remain.  When s > t the search transposes first so the
    branching side is the smaller one.
    """
    s, t = spec.s, spec.t
    if s > g.m or t > g.n:
        return None
    if s > t:
        hit = find_biclique(transpose(g), BicliqueSpec(t, s))
        if hit is None:
            return None
        return hit[1], hit[0]

    masks = g.row_masks
    m = g.m
    chosen: list[int] = []

    def extend(start: int, inter: int, need: int) -> int | None:
        if need == 0:
            return inter
        for i in range(start, m - need + 1):
            nxt = inter & masks[i]
            if nxt.bit_count() < t:
                continue
            chosen.append(i)
            got = extend(i + 1, nxt, need - 1)
            if got is not None:
                return got
            chosen.pop()
        return None

    inter = extend(0, g.full_mask, s)
    if inter is None:
        return None
    return tuple(chosen), columns_from_mask(inter)[:t]


def contains_biclique(g: BipartiteGraph, spec: BicliqueSpec) -> bool:
    """True iff some s rows and t columns of g carry all s*t edges."""
    return find_biclique(g, spec) is not None


def union_coverage(g: BipartiteGraph, rows_subset: Iterable[int]) -> CoverageReport:
    """Coverage of the column side by the union of the given rows' neighbourhoods."""
    subset = frozenset(rows_subset)
    check_index(g.m, "row", *subset)
    union = 0
    for i in subset:
        union |= g.row_masks[i]
    covered = union.bit_count()
    return CoverageReport(subset, covered, g.n - covered)


def pair_budget(g: BipartiteGraph) -> tuple[int, int]:
    """(used, capacity) for the column-pair count argument.

    Each row of degree d occupies C(d, 2) column pairs, and no pair may be
    occupied twice in a C4-free graph, so used <= capacity = C(n, 2) whenever
    the graph is C4-free.  The bound is necessary, not sufficient.
    """
    used = sum(comb(mask.bit_count(), 2) for mask in g.row_masks)
    return used, comb(g.n, 2)


def induced_rows(g: BipartiteGraph, row_indices: Iterable[int]) -> BipartiteGraph:
    """Restriction of g to the given rows (column side unchanged); at least one row."""
    indices = tuple(row_indices)
    check_index(g.m, "row", *indices)
    return BipartiteGraph(len(indices), g.n, tuple(g.row_masks[i] for i in indices))
