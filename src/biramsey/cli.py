"""Command-line frontend: verify witnesses, run searches, print the known-value
registry, and export instances as DIMACS CNF.

Arrowing is always reported in the standard sense: ARROWS means every
subgraph of K_{m,n} contains K_{2,2} or has K_{t,t} in its bipartite
complement; NOT_ARROWS means a good coloring exists and is attached as a
witness.  Rows and columns are printed with 1-based labels.

Exit codes: ``verify`` 0 valid / 2 invalid / 1 parse error; ``arrows`` 0
ARROWS / 3 NOT_ARROWS / 4 budget exhausted; ``brfind`` 0 exact value or
NONEXISTENT / 4 lower bound only (a budget trip, or ``--limit`` reached
without arrowing).  Every command exits 2 on a usage error and 1 when a
file cannot be read or written; ``arrows -o`` checks its path before the
search, so that failure costs no search.
SIGTERM ends a command as Ctrl-C would, running its clean-up (an interrupted
``export-cnf`` removes its temporary file), and exits 143 (128 + SIGTERM).
A reader that closes the output pipe early (``| head -1``) ends a command
quietly with exit 141 (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import errno
import os
import signal
import sys

from .cnf import encode_cnf, write_dimacs
from .core import UsageError
from .search import (
    ARROWS,
    BUDGET_EXHAUSTED,
    NOT_ARROWS,
    PRUNE_RULES,
    ArrowingInstance,
    SearchConfig,
    arrows,
    find_br_m,
)
from .table import build_table, render_table
from .witnesses import (
    EXACT,
    LOWER_BOUND,
    VERIFIED_WITNESS,
    WitnessParseError,
    parse_witness,
    serialize_witness,
    star_witness,
    verify_good_coloring,
    witness_6x39,
    witness_8x29,
)

_EPILOG = (
    "Arrowing is reported in the standard sense: ARROWS means every subgraph "
    "of K_{m,n} contains K_{2,2} or has K_{t,t} in its bipartite complement. "
    "A good coloring (a subgraph avoiding both) witnesses NOT_ARROWS."
)
_THREADS_HELP = (
    "accepted and validated (>= 1); the search runs serially, and the value "
    "is kept for a later parallel backend"
)
_BUDGET_SCOPE = (
    "; the budget applies to one arrowing decision, so brfind gives every n "
    "a fresh budget"
)
_NO_PRUNE_HELP = (
    "disable one pruning rule (repeatable); pair-budget is implied by "
    "generation and prunes nothing"
)


def _color_enabled() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _paint(text: str, code: str) -> str:
    if _color_enabled():
        return f"\033[{code}m{text}\033[0m"
    return text


def _verdict_text(verdict: str) -> str:
    codes = {ARROWS: "36", NOT_ARROWS: "32", BUDGET_EXHAUSTED: "33"}
    return _paint(verdict, codes.get(verdict, "0"))


def _labels(indices) -> str:
    return ",".join(str(i + 1) for i in indices)


def _print_report(cert) -> None:
    g = cert.graph
    t = cert.t
    rep = cert.report
    print(
        f"m={g.m} n={g.n} t={t} "
        f"(avoid K_{{2,2}} in the graph, K_{{{t},{t}}} in the complement)"
    )
    print(f"max degree: {rep.max_degree}")
    if rep.pair_count:
        print(f"max pairwise intersection: {rep.max_pair_intersection}")
        print(f"min pairwise intersection: {rep.min_pair_intersection}")
        print(f"row pairs: {rep.pair_count}")
    else:
        print("max pairwise intersection: n/a (single row)")
    if rep.coverage_subsets:
        print(
            f"{t}-row coverage: min {rep.min_coverage}, max {rep.max_coverage} "
            f"(of {g.n} columns, {rep.coverage_subsets} subsets)"
        )
    else:
        print(f"{t}-row coverage: n/a (fewer than {t} rows)")
    if cert.valid:
        print(f"verdict: {_paint('VALID', '32')}")
    else:
        print(f"verdict: {_paint('INVALID', '31')}")
        if cert.left_violation is not None:
            rows, cols = cert.left_violation
            print(
                f"K_{{2,2}} found in the graph: rows {_labels(rows)} "
                f"columns {_labels(cols)}"
            )
        if cert.right_violation is not None:
            rows, cols = cert.right_violation
            print(
                f"K_{{{t},{t}}} found in the complement: rows {_labels(rows)} "
                f"columns {_labels(cols)}"
            )


def _cmd_verify(args) -> int:
    try:
        with open(args.witness, "r", encoding="utf-8") as handle:
            text = handle.read()
        cert = parse_witness(text)
    except (UnicodeDecodeError, WitnessParseError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    _print_report(cert)
    return 0 if cert.valid else 2


def _write_witness(path: str, cert) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(serialize_witness(cert))


# the bundled colorings ``fixtures emit`` writes by name, with their t
_FIXTURES = {"witness_6x39": (witness_6x39, 5), "witness_8x29": (witness_8x29, 5)}


def _cmd_fixtures_emit(args) -> int:
    if args.name in _FIXTURES:
        make, t = _FIXTURES[args.name]
        graph = make()
    else:
        missing = [flag for flag, v in (("-m", args.m), ("-n", args.n), ("-t", args.t)) if v is None]
        if missing:
            print(f"error: star needs {' '.join(missing)}", file=sys.stderr)
            return 2
        graph, t = star_witness(args.m, args.n), args.t
    _write_witness(args.path, verify_good_coloring(graph, t))
    # on stderr: the target may be /dev/stdout
    print(f"wrote {args.name} ({graph.m}x{graph.n}, t={t}) to {args.path}", file=sys.stderr)
    return 0


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        node_budget=args.budget_nodes,
        time_budget=args.budget_secs,
        threads=args.threads,
        disabled_rules=frozenset(args.no_prune or ()),
    )


def _check_writable(path: str) -> None:
    """Raise the OSError that writing ``path`` would, without creating it."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(parent, os.W_OK) or (
        os.path.exists(path) and not os.access(path, os.W_OK)
    ):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _cmd_arrows(args) -> int:
    inst = ArrowingInstance(args.m, args.n, args.t)
    if args.output:
        # before the search, so a bad path does not cost the search its witness
        _check_writable(args.output)
    outcome = arrows(inst, _search_config(args))
    print(
        f"instance: m={inst.m} n={inst.n} t={inst.t} "
        f"(does every subgraph of K_{{{inst.m},{inst.n}}} contain K_{{2,2}} "
        f"or a complement K_{{{inst.t},{inst.t}}}?)"
    )
    print(f"verdict: {_verdict_text(outcome.verdict)}")
    st = outcome.stats
    print(
        f"nodes expanded: {st.nodes}; extension attempts: {st.attempts}; "
        f"elapsed: {st.elapsed:.3f}s"
    )
    print("prunes: " + " ".join(f"{rule}={st.prunes.get(rule, 0)}" for rule in PRUNE_RULES))
    if outcome.verdict == NOT_ARROWS and args.output:
        _write_witness(args.output, outcome.certificate)
        print(f"witness written to {args.output}")
    if outcome.verdict == ARROWS:
        return 0
    if outcome.verdict == NOT_ARROWS:
        return 3
    return 4


def _cmd_brfind(args) -> int:
    limit = args.limit if args.limit is not None else 2 * args.t * args.t
    record = find_br_m(args.m, args.t, limit, _search_config(args))
    print(record.describe())
    if record.status == EXACT and record.certificate is not None:
        state = "verified" if record.certificate.valid else "INVALID"
        print(f"witness at n={record.certificate.graph.n}: {state}")
    return 4 if record.status == LOWER_BOUND else 0


def _cmd_export_cnf(args) -> int:
    cnf = encode_cnf(ArrowingInstance(args.m, args.n, args.t))
    write_dimacs(cnf, args.output)
    # on stderr: the target may be /dev/stdout
    print(f"wrote p cnf {cnf.num_vars} {cnf.num_clauses} to {args.output}", file=sys.stderr)
    return 0


def _cmd_table(args) -> int:
    entries = build_table()
    for line in render_table(entries):
        print(line)
    verified = sum(1 for e in entries if e.lower_provenance == VERIFIED_WITNESS)
    print(f"(re-verified {verified} witness-backed rows live)")
    return 0


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget-nodes", type=int, help="search nodes allowed" + _BUDGET_SCOPE
    )
    parser.add_argument(
        "--budget-secs", type=float, help="wall-clock seconds allowed" + _BUDGET_SCOPE
    )
    parser.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    parser.add_argument(
        "--no-prune", action="append", choices=PRUNE_RULES, help=_NO_PRUNE_HELP
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biramsey",
        description=(
            "Exact engine for m-bipartite Ramsey arrowing of (K_{2,2}, K_{t,t})."
        ),
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify a witness file", epilog=_EPILOG)
    p_verify.add_argument("witness", help="path to a witness file")
    p_verify.set_defaults(func=_cmd_verify)

    p_fixtures = sub.add_parser("fixtures", help="bundled witness fixtures")
    fixtures_sub = p_fixtures.add_subparsers(dest="fixtures_command", required=True)
    p_emit = fixtures_sub.add_parser("emit", help="write a fixture in the witness format")
    p_emit.add_argument("name", choices=(*_FIXTURES, "star"))
    p_emit.add_argument("path")
    p_emit.add_argument("-m", type=int, default=None, help="rows (star only)")
    p_emit.add_argument("-n", type=int, default=None, help="columns (star only)")
    p_emit.add_argument("-t", type=int, default=None, help="right pattern (star only)")
    p_emit.set_defaults(func=_cmd_fixtures_emit)

    p_arrows = sub.add_parser("arrows", help="decide one arrowing instance", epilog=_EPILOG)
    p_arrows.add_argument("-m", type=int, required=True)
    p_arrows.add_argument("-n", type=int, required=True)
    p_arrows.add_argument("-t", type=int, required=True)
    _add_search_flags(p_arrows)
    p_arrows.add_argument("-o", "--output", default=None, help="write the witness here")
    p_arrows.set_defaults(func=_cmd_arrows)

    p_brfind = sub.add_parser(
        "brfind", help="scan n for the least arrowing instance", epilog=_EPILOG
    )
    p_brfind.add_argument("-m", type=int, required=True)
    p_brfind.add_argument("-t", type=int, required=True)
    p_brfind.add_argument(
        "--limit",
        type=int,
        default=None,
        help="largest n to scan (default 2*t*t, where arrowing is guaranteed for m > t)",
    )
    _add_search_flags(p_brfind)
    p_brfind.set_defaults(func=_cmd_brfind)

    p_export = sub.add_parser("export-cnf", help="write the instance as DIMACS CNF")
    p_export.add_argument("-m", type=int, required=True)
    p_export.add_argument("-n", type=int, required=True)
    p_export.add_argument("-t", type=int, required=True)
    p_export.add_argument("-o", "--output", required=True)
    p_export.set_defaults(func=_cmd_export_cnf)

    p_table = sub.add_parser(
        "table", help="print the known-values registry with provenance"
    )
    p_table.set_defaults(func=_cmd_table)

    return parser


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # unwind on SIGTERM as on Ctrl-C, so clean-up code runs before the exit
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        code = args.func(args)
        # inside the try: a reader that left early fails this flush too
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed the pipe, which is normal use; point stdout at
        # the null device so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 128 + signal.SIGPIPE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
