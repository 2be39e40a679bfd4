"""CNF encoding of arrowing instances, DIMACS export, model decoding, toy DPLL.

Variable v(i,j) = i*n + j + 1 asserts that edge (row i, column j) is present,
0-based i and j.  Two clause families make satisfying assignments exactly the
good colorings:

* for every pair of rows i < i' and columns j < j', the no-K_{2,2} clause
  (-v(i,j) -v(i,j') -v(i',j) -v(i',j'));
* for every t-subset R of rows and t-subset C of columns, the covering
  clause OR_{i in R, j in C} v(i,j), which forbids K_{t,t} in the complement.

Unsatisfiability is therefore equivalent to ARROWS.  Covering clauses are
emitted fully expanded (no auxiliary variables), which keeps decoding trivial
and the encoding auditable; the cost is clause volume, acceptable for file
export.  Clause order is fixed (all no-K_{2,2} clauses lexicographic in
(i, i', j, j'), then all covering clauses lexicographic in the subset pair),
so DIMACS output is byte-identical across runs and platforms.

Covering clauses are built from parts, one per row.  ``combinations`` over
row i's n literals yields row i's part of every column t-subset C, in the
lex order of C; the clause of (R, C) lists its literals row-major, so it is
the concatenation of the C-th items of the parts of the rows in R.  Zipping
the t parts of R therefore gives R's clauses in order, and the joins (tuple
``add`` for ``clauses()``, ``str.join`` for ``dimacs_lines()``) run in C,
with no Python code per literal.
"""

from __future__ import annotations

import errno
import io
import os
import stat
import tempfile
from dataclasses import dataclass
from itertools import combinations, compress, count, repeat
from math import comb
from operator import add
from typing import Iterator, Sequence

from .core import BipartiteGraph, UsageError, columns_from_mask
from .search import ArrowingInstance
from .witnesses import WitnessCertificate, verify_good_coloring

# the most clauses ``solve_with_toy_dpll`` will materialize
TOY_CLAUSE_LIMIT = 200_000


class EncodingIntegrityError(RuntimeError):
    """A model that satisfies the formula decoded to an invalid coloring."""


@dataclass(frozen=True)
class CnfInstance:
    """The CNF formulation for one (m, n, t) arrowing instance.

    Clauses are streamed, never stored: the covering family alone reaches
    millions of clauses at the interesting sizes.
    """

    m: int
    n: int
    t: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1 or self.t < 1:
            raise UsageError(f"need m, n, t >= 1, got m={self.m} n={self.n} t={self.t}")
        if self.t > min(self.m, self.n):
            raise UsageError(
                f"t={self.t} exceeds min(m, n)={min(self.m, self.n)}; "
                "the covering clauses would be empty"
            )

    @property
    def num_vars(self) -> int:
        return self.m * self.n

    @property
    def num_clauses(self) -> int:
        return comb(self.m, 2) * comb(self.n, 2) + comb(self.m, self.t) * comb(
            self.n, self.t
        )

    def var(self, i: int, j: int) -> int:
        """1-based DIMACS variable for edge (row i, column j), 0-based i, j."""
        if not (0 <= i < self.m and 0 <= j < self.n):
            raise UsageError(f"edge ({i}, {j}) out of range for {self.m}x{self.n}")
        return i * self.n + j + 1

    def clauses(self) -> Iterator[tuple[int, ...]]:
        """All clauses in the canonical order."""
        n = self.n
        for i, i2 in combinations(range(self.m), 2):
            bi, bi2 = i * n, i2 * n
            for j, j2 in combinations(range(n), 2):
                yield (-(bi + j + 1), -(bi + j2 + 1), -(bi2 + j + 1), -(bi2 + j2 + 1))
        rows = [range(i * n + 1, (i + 1) * n + 1) for i in range(self.m)]
        for parts in self._covering_parts(rows):
            yield from _concat(parts)

    def dimacs_lines(self) -> Iterator[str]:
        """DIMACS text, line by line, without trailing newlines."""
        yield f"p cnf {self.num_vars} {self.num_clauses}"
        n = self.n
        for i, i2 in combinations(range(self.m), 2):
            bi, bi2 = i * n, i2 * n
            for j, j2 in combinations(range(n), 2):
                yield f"-{bi + j + 1} -{bi + j2 + 1} -{bi2 + j + 1} -{bi2 + j2 + 1} 0"
        # each literal carries its separator, so a line is the parts' text and "0"
        rows = [[f"{v} " for v in range(i * n + 1, (i + 1) * n + 1)] for i in range(self.m)]
        for parts in self._covering_parts(rows):
            yield from map("".join, zip(*(map("".join, p) for p in parts), repeat("0")))

    def _covering_parts(self, rows: Sequence[Sequence]) -> Iterator[list[Iterator[tuple]]]:
        """For each row t-subset R in lex order, the parts of its rows.

        ``rows[i]`` lists row i's literals by column; zipping R's parts gives
        R's covering clauses in order (see the module docstring).
        """
        t = self.t
        for subset in combinations(range(self.m), t):
            yield [combinations(rows[i], t) for i in subset]


def _concat(parts: list[Iterator[tuple]]) -> Iterator[tuple]:
    """Item-wise concatenation of tuple streams, joined in halves.

    Halving copies fewer literals than a left fold and builds no 20-item
    tuple at t = 5: CPython 3.11 keeps every freed 20-item tuple on a free
    list that it never allocates from, up to 2,000 of them (400 KB).
    """
    if len(parts) == 1:
        return parts[0]
    half = len(parts) // 2
    return map(add, _concat(parts[:half]), _concat(parts[half:]))


def encode_cnf(inst: ArrowingInstance) -> CnfInstance:
    """CNF for the instance; usage error when t > min(m, n)."""
    return CnfInstance(inst.m, inst.n, inst.t)


def write_dimacs(cnf: CnfInstance, destination) -> None:
    """Write the DIMACS text to a path or a text file object (LF endings).

    A path that names a regular file, or nothing yet, is written to a new
    temporary file in its directory, which replaces the target only once
    every line is written: an interrupted export leaves the target as it
    was, never a formula cut short under a header that promises every
    clause.  The output gets the mode the target had, or the umask's mode
    for a new file.  Any other path (a symlink, a FIFO, a device such as
    /dev/stdout) is opened and written directly, so the export can be
    streamed to a solver.  A path that cannot be written fails before the
    first line is built.
    """
    if not (isinstance(destination, (str, bytes)) or hasattr(destination, "__fspath__")):
        _write_lines(cnf, destination)
        return
    path = os.fsdecode(destination)
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(path, "w", encoding="ascii", newline="\n") as handle:
            _write_lines(cnf, handle)
        return
    if st is None:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    else:
        if not os.access(path, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        mode = stat.S_IMODE(st.st_mode)
    directory, name = os.path.split(os.path.abspath(path))
    try:
        fd, partial = tempfile.mkstemp(suffix=".part", prefix=name + ".", dir=directory)
    except OSError as exc:
        # name the target, not the temporary file, as opening it would
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="ascii", newline="\n") as handle:
            os.fchmod(fd, mode)
            _write_lines(cnf, handle)
        os.replace(partial, path)
    except BaseException:
        os.unlink(partial)
        raise


def _write_lines(cnf: CnfInstance, handle: io.TextIOBase) -> None:
    for line in cnf.dimacs_lines():
        handle.write(line)
        handle.write("\n")


def model_from_graph(cnf: CnfInstance, g: BipartiteGraph) -> tuple[bool, ...]:
    """Assignment (index k = variable k+1) with v(i,j) true iff edge present."""
    if g.m != cnf.m or g.n != cnf.n:
        raise UsageError(f"graph is {g.m}x{g.n}, formula is {cnf.m}x{cnf.n}")
    model = [False] * cnf.num_vars
    for i, mask in enumerate(g.row_masks):
        for j in columns_from_mask(mask):
            model[i * cnf.n + j] = True
    return tuple(model)


def graph_from_model(cnf: CnfInstance, model: Sequence[bool]) -> BipartiteGraph:
    """The graph whose edge (i, j) is present iff variable v(i,j) is true.

    The inverse of ``model_from_graph``; any truthy entry counts as true.
    """
    if len(model) != cnf.num_vars:
        raise UsageError(
            f"model assigns {len(model)} variables, formula has {cnf.num_vars}"
        )
    n = cnf.n
    return BipartiteGraph.from_rows(
        cnf.m, n, (compress(count(), model[i * n : (i + 1) * n]) for i in range(cnf.m))
    )


def satisfies(cnf: CnfInstance, model: Sequence[bool]) -> bool:
    """Clause-by-clause check of a full assignment against the formula."""
    if len(model) != cnf.num_vars:
        raise UsageError(
            f"model assigns {len(model)} variables, formula has {cnf.num_vars}"
        )
    true_lits = {v if value else -v for v, value in enumerate(model, 1)}
    return not any(map(true_lits.isdisjoint, cnf.clauses()))


def decode_model(
    cnf: CnfInstance, model: Sequence[bool], strict: bool = False
) -> WitnessCertificate:
    """Decode a full assignment to a certificate, verified before return.

    With ``strict=True`` an invalid decoded coloring raises
    EncodingIntegrityError: a model that satisfies the formula must decode to
    a good coloring, so invalidity then signals an encoder bug.
    """
    cert = verify_good_coloring(graph_from_model(cnf, model), cnf.t)
    if strict and not cert.valid:
        raise EncodingIntegrityError(
            "satisfying model decoded to an invalid coloring"
        )
    return cert


def dpll(num_vars: int, clause_list: Sequence[Sequence[int]]):
    """Naive deterministic DPLL: unit propagation plus lowest-variable branching.

    Returns (True, model) for satisfiable input, (False, None) otherwise.
    Usable only at toy scale; the interesting instances go to external
    solvers through the DIMACS export.
    """
    clauses = [tuple(c) for c in clause_list]
    occ_all: list[list[int]] = [[] for _ in range(num_vars + 1)]
    occ_pos: list[list[int]] = [[] for _ in range(num_vars + 1)]
    occ_neg: list[list[int]] = [[] for _ in range(num_vars + 1)]
    for ci, clause in enumerate(clauses):
        seen = set()
        for lit in clause:
            v = abs(lit)
            if v < 1 or v > num_vars:
                raise UsageError(f"literal {lit} out of range for {num_vars} variables")
            if v not in seen:
                occ_all[v].append(ci)
                seen.add(v)
            (occ_pos if lit > 0 else occ_neg)[v].append(ci)

    n_unassigned = [len({abs(lit) for lit in clause}) for clause in clauses]
    n_sat = [0] * len(clauses)
    assign: list[bool | None] = [None] * (num_vars + 1)
    trail: list[int] = []

    def assign_lit(lit: int, unit_queue: list[int]) -> bool:
        v = abs(lit)
        val = lit > 0
        if assign[v] is not None:
            return assign[v] == val
        assign[v] = val
        trail.append(v)
        for ci in occ_all[v]:
            n_unassigned[ci] -= 1
        for ci in (occ_pos if val else occ_neg)[v]:
            n_sat[ci] += 1
        for ci in (occ_neg if val else occ_pos)[v]:
            if n_sat[ci] == 0:
                if n_unassigned[ci] == 0:
                    return False
                if n_unassigned[ci] == 1:
                    unit_queue.append(ci)
        return True

    def propagate(unit_queue: list[int]) -> bool:
        while unit_queue:
            ci = unit_queue.pop()
            if n_sat[ci] > 0:
                continue
            lit = next(l for l in clauses[ci] if assign[abs(l)] is None)
            if not assign_lit(lit, unit_queue):
                return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            v = trail.pop()
            val = assign[v]
            assign[v] = None
            for ci in occ_all[v]:
                n_unassigned[ci] += 1
            for ci in (occ_pos if val else occ_neg)[v]:
                n_sat[ci] -= 1

    def solve() -> bool:
        v = next((x for x in range(1, num_vars + 1) if assign[x] is None), None)
        if v is None:
            return True
        for val in (True, False):
            mark = len(trail)
            queue: list[int] = []
            if assign_lit(v if val else -v, queue) and propagate(queue):
                if solve():
                    return True
            undo(mark)
        return False

    start_queue = [ci for ci, clause in enumerate(clauses) if len(clause) == 1]
    if any(len(clause) == 0 for clause in clauses):
        return False, None
    if not propagate(start_queue):
        return False, None
    if not solve():
        return False, None
    return True, tuple(bool(assign[v]) for v in range(1, num_vars + 1))


def solve_with_toy_dpll(cnf: CnfInstance) -> tuple[bool, WitnessCertificate | None]:
    """Materialize the clauses and run the toy DPLL; guarded by a size limit.

    Returns (satisfiable, certificate): SAT models decode, strictly, to a
    verified good coloring.
    """
    if cnf.num_clauses > TOY_CLAUSE_LIMIT:
        raise UsageError(
            f"{cnf.num_clauses} clauses exceed the toy solver limit {TOY_CLAUSE_LIMIT}"
        )
    sat, model = dpll(cnf.num_vars, list(cnf.clauses()))
    if not sat:
        return False, None
    return True, decode_model(cnf, model, strict=True)
