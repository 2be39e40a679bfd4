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

Both families are built one way, from parts, one per row.  A family takes
s-subsets of rows and of columns (s = 2 over negated literals for
no-K_{2,2}, s = t over positive ones for covering), and its clause for
(R, C) lists the literals row-major.  ``combinations`` over row i's n
literals yields row i's part of every column s-subset C, in the lex order
of C, so the clause of (R, C) is the concatenation of the C-th items of the
parts of the rows in R.  Zipping the s parts of R therefore gives R's
clauses in order, and the joins (tuple ``add`` for ``clauses()``,
``str.join`` for ``dimacs_lines()``) run in C, with no Python code per
literal.

``satisfies`` reads the same parts and builds no clause.  The clause of
(R, C) is false exactly when every row in R has no true literal in its part
for C, so each row's parts are tested once, their flags packed as the bytes
of one int per row, and R has a false clause iff the AND of its rows' ints
is nonzero: m * C(n, s) part tests in place of C(m, s) * C(n, s) clauses.
"""

from __future__ import annotations

import errno
import io
import os
import stat
import tempfile
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, compress, count, islice, repeat
from math import comb
from operator import add, and_
from typing import Iterator, Sequence

from .core import BipartiteGraph, UsageError, check_index, check_sizes, columns_from_mask
from .search import ArrowingInstance
from .witnesses import WitnessCertificate, verify_good_coloring

# the most clauses ``solve_with_toy_dpll`` will materialize
TOY_CLAUSE_LIMIT = 200_000
# column subsets ``satisfies`` tests per row at a time (one flag byte each)
CHECK_CHUNK = 1024


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
        check_sizes(m=self.m, n=self.n, t=self.t)
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
        check_index(self.m, "row", i)
        check_index(self.n, "column", j)
        return i * self.n + j + 1

    def clauses(self) -> Iterator[tuple[int, ...]]:
        """All clauses in the canonical order."""
        for parts in self._parts(*self._literals()):
            yield from _concat(parts)

    def dimacs_lines(self) -> Iterator[str]:
        """DIMACS text, line by line, without trailing newlines."""
        yield f"p cnf {self.num_vars} {self.num_clauses}"
        # each literal carries its separator, so a line is the parts' text and "0"
        neg, pos = ([[f"{v} " for v in row] for row in rows] for rows in self._literals())
        for parts in self._parts(neg, pos):
            yield from map("".join, zip(*(map("".join, p) for p in parts), repeat("0")))

    def _literals(self) -> tuple[list[range], list[range]]:
        """Each row's negated and positive literals, by column."""
        n = self.n
        pos = [range(i * n + 1, (i + 1) * n + 1) for i in range(self.m)]
        neg = [range(-i * n - 1, -(i + 1) * n - 1, -1) for i in range(self.m)]
        return neg, pos

    def _parts(
        self, neg: Sequence[Sequence], pos: Sequence[Sequence]
    ) -> Iterator[list[Iterator[tuple]]]:
        """For each clause family in order, each row subset's parts in lex order.

        ``neg[i]`` and ``pos[i]`` list row i's negated and positive literals
        by column.  The no-K_{2,2} family takes 2-subsets of ``neg``, the
        covering family t-subsets of ``pos``; zipping a subset's parts gives
        its clauses in order (see the module docstring).
        """
        for rows, s in self._families(neg, pos):
            for subset in combinations(range(self.m), s):
                yield [combinations(rows[i], s) for i in subset]

    def _families(self, neg: Sequence[Sequence], pos: Sequence[Sequence]) -> tuple:
        """The clause families in order, each as (per-row literals, subset size s)."""
        return ((neg, 2), (pos, self.t))


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
    """Whether a full assignment satisfies every clause, checked row part by row part.

    No clause is built (see the module docstring): for each family and each
    chunk of ``CHECK_CHUNK`` column subsets, every row packs one flag byte
    per subset, set when its part there has no true literal, and a row
    subset whose packed flags share a set byte has a false clause.
    """
    if len(model) != cnf.num_vars:
        raise UsageError(
            f"model assigns {len(model)} variables, formula has {cnf.num_vars}"
        )
    true_lits = {v if value else -v for v, value in enumerate(model, 1)}
    for rows, s in cnf._families(*cnf._literals()):
        parts = [combinations(row, s) for row in rows]
        subsets = list(combinations(range(cnf.m), s))
        for _ in range(-(-comb(cnf.n, s) // CHECK_CHUNK)):
            flags = [
                int.from_bytes(bytes(map(true_lits.isdisjoint, islice(p, CHECK_CHUNK))), "big")
                for p in parts
            ]
            for subset in subsets:
                if reduce(and_, map(flags.__getitem__, subset)):
                    return False
    return True


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

    Accepts any clause list, including clauses that repeat a literal or hold
    both x and -x.  Branches on the lowest unassigned variable, True first,
    and propagation only forces literals every model must have, so the model
    returned is the lexicographically first (True before False).  Returns
    (True, model) for satisfiable input, (False, None) otherwise.  Usable
    only at toy scale; the interesting instances go to external solvers
    through the DIMACS export.
    """
    clauses = [tuple(c) for c in clause_list]
    # indexed by literal (a negative literal -v lands at 2 * num_vars + 1 - v):
    # value[lit] is None while unassigned, and falsified[lit] holds the
    # clauses with -lit, the only ones making lit true can leave unit or false
    value: list[bool | None] = [None] * (2 * num_vars + 1)
    falsified: list[list[tuple[int, ...]]] = [[] for _ in value]
    for clause in clauses:
        for lit in set(clause):
            if not 0 < abs(lit) <= num_vars:
                raise UsageError(f"literal {lit} out of range for {num_vars} variables")
            falsified[-lit].append(clause)
    trail: list[int] = []

    def unit(clause) -> int | None:
        """The one distinct free literal of an unsatisfied clause, 0 if none.

        None when some literal is true or two distinct ones are free, so
        x or -x is never a unit.
        """
        free = 0
        for lit in clause:
            x = value[lit]
            if x:
                return None
            if x is None:
                if free and free != lit:
                    return None
                free = lit
        return free

    def assign(queue: list[int]) -> bool:
        """Make the queued literals true, with what they force; False on conflict."""
        while queue:
            lit = queue.pop()
            if value[lit] is not None:
                if value[lit]:
                    continue
                return False
            value[lit], value[-lit] = True, False
            trail.append(lit)
            for clause in falsified[lit]:
                forced = unit(clause)
                if forced == 0:
                    return False
                if forced is not None:
                    queue.append(forced)
        return True

    def solve(v: int) -> bool:
        while v <= num_vars and value[v] is not None:
            v += 1
        if v > num_vars:
            return True
        mark = len(trail)
        for lit in (v, -v):
            if assign([lit]) and solve(v + 1):
                return True
            for undone in trail[mark:]:
                value[undone] = value[-undone] = None
            del trail[mark:]
        return False

    if not all(clauses) or not assign([u for u in map(unit, clauses) if u]) or not solve(1):
        return False, None
    return True, tuple(value[1 : num_vars + 1])


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
