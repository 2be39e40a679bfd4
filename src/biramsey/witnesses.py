"""Good-coloring witnesses: bundled extremal colorings, verification, file format.

A *good coloring* for parameters (m, n, t) is a subgraph G of K_{m,n} with no
K_{2,2} in G and no K_{t,t} in the bipartite complement of G.  Its existence
proves that not every subgraph of K_{m,n} yields one of the two patterns, so
the m-bipartite Ramsey value for (K_{2,2}, K_{t,t}) exceeds n.

The two bundled fixtures are known extremal constructions at t = 5: a 6x39
coloring (all degrees 9, all 15 row pairs meet in exactly one column, every
5 rows cover 35 of the 39 columns) and an 8x29 coloring (degrees 8,7,...,7,
all 28 row pairs meet in one column, every 5 rows cover 25 or 26 columns).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations

from .core import BipartiteGraph, UsageError, columns_from_mask, mask_from_columns, max_row_degree

WITNESS_FORMAT_HEADER = "biramsey-witness v1"

# Provenance labels for known-value records.
VERIFIED_WITNESS = "verified-witness"
SEARCHED = "searched"
TRUSTED_LITERATURE = "trusted-literature"

# Status of a known-value record.
EXACT = "exact"
NONEXISTENT = "nonexistent"
LOWER_BOUND = "lower-bound"

# Row neighbourhoods of the bundled colorings, as 1-based column labels.
_ROWS_6X39 = (
    (1, 2, 3, 4, 5, 6, 7, 8, 9),
    (1, 10, 11, 12, 13, 14, 15, 16, 17),
    (2, 10, 18, 19, 20, 21, 22, 23, 24),
    (3, 11, 18, 25, 26, 27, 28, 29, 30),
    (4, 12, 19, 25, 31, 32, 33, 34, 35),
    (5, 13, 20, 26, 31, 36, 37, 38, 39),
)

_ROWS_8X29 = (
    (1, 2, 3, 4, 5, 6, 7, 8),
    (1, 9, 10, 11, 12, 13, 14),
    (2, 9, 15, 16, 17, 18, 19),
    (3, 10, 15, 20, 21, 22, 23),
    (4, 11, 16, 20, 24, 25, 26),
    (5, 12, 17, 21, 24, 27, 28),
    (6, 13, 18, 22, 25, 27, 29),
    (7, 14, 19, 23, 26, 28, 29),
)


def _from_labels(m: int, n: int, labelled_rows) -> BipartiteGraph:
    return BipartiteGraph.from_rows(m, n, ([c - 1 for c in row] for row in labelled_rows))


def witness_6x39() -> BipartiteGraph:
    """The bundled 6x39 good coloring for t = 5 (shows the m=6 value is > 39)."""
    return _from_labels(6, 39, _ROWS_6X39)


def witness_8x29() -> BipartiteGraph:
    """The bundled 8x29 good coloring for t = 5 (shows the m=7,8 values are > 29)."""
    return _from_labels(8, 29, _ROWS_8X29)


def star_witness(m: int, n: int) -> BipartiteGraph:
    """Row 0 adjacent to every column, rows 1..m-1 empty.

    A star is C4-free outright, and its complement has only m-1 nonempty
    rows, so it is a good coloring for t exactly when m - 1 < t or n < t.
    For m <= t that holds at every n, which is why no finite value exists
    for those m.
    """
    if m < 1 or n < 1:
        raise UsageError(f"need m >= 1 and n >= 1, got {m}x{n}")
    return BipartiteGraph(m, n, ((1 << n) - 1,) + (0,) * (m - 1))


@dataclass(frozen=True)
class VerificationReport:
    """Recomputable summary statistics of a (claimed) good coloring.

    Pairwise figures are None when m < 2; coverage figures are None when
    m < t (no t-row subsets exist, so the complement cannot host K_{t,t}).
    """

    max_degree: int
    pair_count: int
    min_pair_intersection: int | None
    max_pair_intersection: int | None
    coverage_subsets: int
    min_coverage: int | None
    max_coverage: int | None


@dataclass(frozen=True)
class WitnessCertificate:
    """A graph together with the verification outcome for (K_{2,2}, K_{t,t}).

    Valid iff no two rows share two columns and every t rows cover at least
    n - t + 1 columns.  An invalid certificate names the first row pair
    sharing two columns and the first t rows covering at most n - t, each
    with its first 2 shared or t uncovered columns: the embeddings
    ``find_biclique`` gives in the graph and in its complement.  The
    certificate always stores the full graph, so it is self-checking.
    """

    graph: BipartiteGraph
    t: int
    valid: bool
    report: VerificationReport
    left_violation: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    right_violation: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def verify_good_coloring(g: BipartiteGraph, t: int) -> WitnessCertificate:
    """Check whether g is a good coloring for (K_{2,2}, K_{t,t}): one pass over
    the row pairs and the t-row subsets gives the report and the verdict."""
    if t < 1:
        raise UsageError(f"need t >= 1, got {t}")
    masks = g.row_masks
    left_violation = right_violation = None
    pair_sizes = []
    for pair in combinations(range(g.m), 2):
        shared = masks[pair[0]] & masks[pair[1]]
        pair_sizes.append(shared.bit_count())
        if left_violation is None and pair_sizes[-1] >= 2:
            left_violation = pair, columns_from_mask(shared)[:2]
    coverages = []  # no t-subsets when m < t
    for subset in combinations(range(g.m), t):
        union = 0
        for i in subset:
            union |= masks[i]
        coverages.append(union.bit_count())
        if right_violation is None and coverages[-1] <= g.n - t:
            right_violation = subset, columns_from_mask(g.full_mask ^ union)[:t]
    return WitnessCertificate(
        graph=g,
        t=t,
        valid=left_violation is None and right_violation is None,
        report=VerificationReport(
            max_degree=max_row_degree(g),
            pair_count=len(pair_sizes),
            min_pair_intersection=min(pair_sizes) if pair_sizes else None,
            max_pair_intersection=max(pair_sizes) if pair_sizes else None,
            coverage_subsets=len(coverages),
            min_coverage=min(coverages) if coverages else None,
            max_coverage=max(coverages) if coverages else None,
        ),
        left_violation=left_violation,
        right_violation=right_violation,
    )


class WitnessParseError(ValueError):
    """Malformed witness file; ``line`` is the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def serialize_witness(cert: WitnessCertificate) -> str:
    """Canonical text form: rows in index order, columns ascending, 1-based labels."""
    g = cert.graph
    lines = [WITNESS_FORMAT_HEADER, f"m={g.m} n={g.n} t={cert.t}"]
    for i, mask in enumerate(g.row_masks):
        labels = " ".join(str(c + 1) for c in columns_from_mask(mask))
        lines.append(f"{i + 1}: {labels}" if labels else f"{i + 1}:")
    return "\n".join(lines) + "\n"


_PARAM_RE = re.compile(r"^m=(\d+) n=(\d+) t=(\d+)$", re.ASCII)
_ROW_RE = re.compile(r"^(\d+):(.*)$", re.ASCII)


def parse_witness(text: str) -> WitnessCertificate:
    """Parse the witness format and re-verify the coloring it describes."""
    lines = text.split("\n")
    if not lines or lines[0] != WITNESS_FORMAT_HEADER:
        raise WitnessParseError(1, f"expected header {WITNESS_FORMAT_HEADER!r}")
    if len(lines) < 2:
        raise WitnessParseError(2, "missing parameter line")
    params = _PARAM_RE.match(lines[1])
    if params is None:
        raise WitnessParseError(2, "expected 'm=<int> n=<int> t=<int>'")
    try:
        m, n, t = (int(x) for x in params.groups())
    except ValueError:  # more digits than int() converts
        raise WitnessParseError(2, "parameter has too many digits") from None
    if m < 1 or n < 1 or t < 1:
        raise WitnessParseError(2, f"parameters must be >= 1, got m={m} n={n} t={t}")

    masks = []
    for i in range(m):
        lineno = i + 3
        if lineno - 1 >= len(lines):
            raise WitnessParseError(lineno, f"missing row {i + 1}")
        row = _ROW_RE.match(lines[lineno - 1])
        if row is None:
            raise WitnessParseError(lineno, f"expected '{i + 1}: <columns>'")
        if row.group(1).lstrip("0") != str(i + 1):  # int() fails on 4,300+ digits
            raise WitnessParseError(lineno, f"expected row index {i + 1}, got {row.group(1)}")
        columns = set()
        for token in row.group(2).split():
            try:
                if not (token.isascii() and token.isdigit()):  # int() takes "+3", "1_0"
                    raise ValueError
                label = int(token)
            except ValueError:
                raise WitnessParseError(lineno, f"bad column label {token!r}") from None
            if not 1 <= label <= n:
                raise WitnessParseError(lineno, f"column label {label} out of range 1..{n}")
            if label - 1 in columns:
                raise WitnessParseError(lineno, f"duplicate column {label} in row {i + 1}")
            columns.add(label - 1)
        masks.append(mask_from_columns(columns, n))

    for extra, line in enumerate(lines[m + 2 :], start=m + 3):
        if line and not line.startswith("#"):
            raise WitnessParseError(extra, f"unexpected content after rows: {line!r}")

    return verify_good_coloring(BipartiteGraph(m, n, tuple(masks)), t)


@dataclass(frozen=True)
class KnownValueRecord:
    """One (m, t) entry of the known-values registry.

    ``status`` is one of EXACT (``value`` holds the number), NONEXISTENT
    (no n works), or LOWER_BOUND (undecided scan; ``bound`` holds the best
    proven 'value >= bound').
    """

    m: int
    t: int
    status: str
    provenance: str
    value: int | None = None
    bound: int | None = None
    certificate: WitnessCertificate | None = None
    note: str = ""

    def __post_init__(self):
        if self.status not in (EXACT, NONEXISTENT, LOWER_BOUND):
            raise UsageError(f"unknown status {self.status!r}")
        if self.provenance not in (VERIFIED_WITNESS, SEARCHED, TRUSTED_LITERATURE):
            raise UsageError(f"unknown provenance {self.provenance!r}")
        if self.status == EXACT:
            if self.value is None or self.value < 1:
                raise UsageError("exact record needs a positive value")
            if self.provenance == VERIFIED_WITNESS:
                cert = self.certificate
                if cert is None or not cert.valid or cert.graph.n != self.value - 1:
                    raise UsageError(
                        "verified-witness records need a valid certificate at n = value - 1"
                    )
        if self.status == LOWER_BOUND and self.bound is None:
            raise UsageError("lower-bound record needs a bound")

    def describe(self) -> str:
        name = f"BR_{self.m}(K_{{2,2}}, K_{{{self.t},{self.t}}})"
        if self.status == NONEXISTENT:
            tail = f" ({self.note})" if self.note else ""
            return f"{name}: NONEXISTENT{tail}"
        if self.status == EXACT:
            return f"{name} = {self.value} (provenance: {self.provenance})"
        return f"{name} >= {self.bound} (undecided: {self.note or 'scan incomplete'})"
