"""Independent brute-force oracles the engine is checked against.

Nothing here imports from the package; everything works from first
principles on raw row bitmasks so that an engine bug cannot hide in a
shared code path.

A graph on m rows and n columns is encoded as m masks (bit j of mask i set
iff edge (i, j) present), or as a single integer whose bits i*n+j lay the
rows out consecutively.  A *good coloring* for t avoids K_{2,2} in the
graph (every two rows share <= 1 column) and K_{t,t} in the bipartite
complement (every t rows share <= t-1 complement columns).
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, permutations, product

import numpy as np


def rows_of(code: int, m: int, n: int) -> list[int]:
    full = (1 << n) - 1
    return [(code >> (i * n)) & full for i in range(m)]


def is_good_coloring(rows: list[int], n: int, t: int) -> bool:
    full = (1 << n) - 1
    m = len(rows)
    for i, j in combinations(range(m), 2):
        if (rows[i] & rows[j]).bit_count() > 1:
            return False
    for subset in combinations(range(m), t):
        inter = full
        for i in subset:
            inter &= full ^ rows[i]
        if inter.bit_count() >= t:
            return False
    return True


def c4_free_classes(m: int, n: int) -> list[set[tuple[int, ...]]]:
    """The C4-free m x n graphs up to row and column relabelling.

    One set per isomorphism class, holding every image of the class as a
    sorted tuple of row masks; its minimum is the class key.  Sorting the
    rows factors out row relabelling, the column permutations the rest.
    """
    perms = list(permutations(range(n)))
    seen: set[tuple[int, ...]] = set()
    classes = []
    for rows in combinations_with_replacement(range(1 << n), m):
        if rows in seen or any((a & b).bit_count() > 1 for a, b in combinations(rows, 2)):
            continue
        images = set()
        for perm in perms:
            mapped = []
            for mask in rows:
                image = 0
                for c in range(n):
                    if mask >> c & 1:
                        image |= 1 << perm[c]
                mapped.append(image)
            images.add(tuple(sorted(mapped)))
        seen |= images
        classes.append(images)
    return classes


def row_orders(images):
    """Every row order of every image of a class from ``c4_free_classes``."""
    for image in images:
        yield from set(permutations(image))


def contains_biclique_codes(m: int, n: int, s: int, t: int) -> np.ndarray:
    """Whether each of the 2^(m*n) m x n graphs contains K_{s,t}, by code.

    Full subset enumeration over all C(m,s) * C(n,t) row/column pairs,
    vectorized over the codes like ``arrows_oracle``.
    """
    full = (1 << n) - 1
    codes = np.arange(1 << (m * n), dtype=np.int64)
    rows = [(codes >> (i * n)) & full for i in range(m)]
    found = np.zeros(codes.shape, dtype=bool)
    for row_subset in combinations(range(m), s):
        common = np.full(codes.shape, full, dtype=np.int64)
        for i in row_subset:
            common &= rows[i]
        for col_subset in combinations(range(n), t):
            cols = sum(1 << c for c in col_subset)
            found |= (common & cols) == cols
    return found


def arrows_oracle(m: int, n: int, t: int, chunk: int = 1 << 18) -> bool:
    """Scan all 2^(m*n) subgraphs (vectorized); True iff none is good."""
    total = 1 << (m * n)
    full = (1 << n) - 1
    pop = np.array([bin(x).count("1") for x in range(1 << n)], dtype=np.int64)
    subsets = list(combinations(range(m), t)) if m >= t else []
    for lo in range(0, total, chunk):
        codes = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        rows = [(codes >> (i * n)) & full for i in range(m)]
        good = np.ones(codes.shape, dtype=bool)
        for i, j in combinations(range(m), 2):
            good &= pop[rows[i] & rows[j]] <= 1
        for subset in subsets:
            inter = np.full(codes.shape, full, dtype=np.int64)
            for i in subset:
                inter &= rows[i] ^ full
            good &= pop[inter] <= t - 1
        if good.any():
            return False
    return True


def arrows_oracle_row_canonical(m: int, n: int, t: int) -> bool:
    """Scan graphs up to row permutation (goodness is row-order invariant)."""
    for rows in combinations_with_replacement(range(1 << n), m):
        if is_good_coloring(list(rows), n, t):
            return False
    return True


def arrows_oracle_t2(m: int, n: int) -> bool:
    """t = 2 oracle via pairwise compatibility of rows.

    For t = 2 a graph is good iff every two rows share <= 1 column and leave
    <= 1 column jointly uncovered, so good colorings are exactly m-cliques
    (with repetition) in the compatibility relation over all 2^n masks.
    """
    size = 1 << n
    full = size - 1
    compat = []
    for a in range(size):
        row = 0
        for b in range(size):
            if (a & b).bit_count() <= 1 and ((full ^ a) & (full ^ b)).bit_count() <= 1:
                row |= 1 << b
        compat.append(row)

    def extend(prev: int, candidates: int, remaining: int) -> bool:
        if remaining == 0:
            return True
        b = candidates & ((1 << (prev + 1)) - 1)  # keep masks <= prev: multisets only
        while b:
            low = b & -b
            c = low.bit_length() - 1
            b ^= low
            if extend(c, candidates & compat[c], remaining - 1):
                return True
        return False

    for a in range(size - 1, -1, -1):
        if extend(a, compat[a], m - 1):
            return False
    return True


def clauses_from_definition(m: int, n: int, t: int) -> list[tuple[int, ...]]:
    """The CNF clause list as the encoding defines it, literal by literal.

    Variable v(i, j) = i*n + j + 1.  First, for rows i < i2 and columns
    j < j2 in lexicographic order of (i, i2, j, j2), the no-K_{2,2} clause
    (-v(i,j), -v(i,j2), -v(i2,j), -v(i2,j2)); then, for every t-subset R of
    rows and t-subset C of columns in lexicographic order of (R, C), the
    covering clause listing v(i, j) for i in R, j in C, row-major.
    """

    def v(i: int, j: int) -> int:
        return i * n + j + 1

    out = []
    for i in range(m):
        for i2 in range(i + 1, m):
            for j in range(n):
                for j2 in range(j + 1, n):
                    out.append((-v(i, j), -v(i, j2), -v(i2, j), -v(i2, j2)))
    for row_subset in combinations(range(m), t):
        for col_subset in combinations(range(n), t):
            clause = []
            for i in row_subset:
                for j in col_subset:
                    clause.append(v(i, j))
            out.append(tuple(clause))
    return out


def model_satisfies(clauses, model) -> bool:
    """Literal-by-literal check: every clause has a literal the model makes true."""
    for clause in clauses:
        satisfied = False
        for lit in clause:
            value = model[abs(lit) - 1]
            if (lit > 0 and value) or (lit < 0 and not value):
                satisfied = True
                break
        if not satisfied:
            return False
    return True


def lex_first_model(num_vars: int, clauses):
    """The first model over all 2^num_vars assignments, True before False.

    Returns (True, model) or (False, None), the toy solver's contract.
    """
    for model in product((True, False), repeat=num_vars):
        if model_satisfies(clauses, model):
            return True, model
    return False, None
