"""CLI surface: exit codes, report text, witness files, DIMACS export, table."""

import hashlib
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from biramsey.cli import main
from biramsey.table import BICLIQUE_RAMSEY_2_5, build_table, render_table
from biramsey.witnesses import (
    TRUSTED_LITERATURE,
    VERIFIED_WITNESS,
    parse_witness,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _subprocess_env():
    """The environment for ``python -m biramsey.cli``, with this checkout's src first."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


class TestVerify:
    def test_witness_6x39(self, tmp_path, capsys):
        path = tmp_path / "w6x39.txt"
        code, out, _ = run(capsys, "fixtures", "emit", "witness_6x39", str(path))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "max degree: 9" in out
        assert "max pairwise intersection: 1" in out
        assert "min pairwise intersection: 1" in out
        assert "row pairs: 15" in out
        assert "5-row coverage: min 35, max 35 (of 39 columns, 6 subsets)" in out
        assert "verdict: VALID" in out

    def test_witness_8x29(self, tmp_path, capsys):
        path = tmp_path / "w8x29.txt"
        run(capsys, "fixtures", "emit", "witness_8x29", str(path))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "max pairwise intersection: 1" in out
        assert "5-row coverage: min 25, max 26 (of 29 columns, 56 subsets)" in out

    def test_invalid_witness_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad_star.txt"
        code, _, _ = run(
            capsys, "fixtures", "emit", "star", str(path), "-m", "6", "-n", "10", "-t", "5"
        )
        assert code == 0
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 2
        assert "verdict: INVALID" in out
        assert "K_{5,5} found in the complement" in out

    def test_k22_violation_reported(self, tmp_path, capsys):
        path = tmp_path / "square.txt"
        path.write_text("biramsey-witness v1\nm=2 n=2 t=2\n1: 1 2\n2: 1 2\n")
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 2
        assert "K_{2,2} found in the graph: rows 1,2 columns 1,2" in out
        assert "complement" not in out.split("verdict:")[1]

    def test_single_row_fewer_than_t(self, tmp_path, capsys):
        # one row: no row pairs, and no 2-row subsets to cover with
        path = tmp_path / "one_row.txt"
        path.write_text("biramsey-witness v1\nm=1 n=3 t=2\n1: 1\n")
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "max pairwise intersection: n/a (single row)" in out
        assert "row pairs:" not in out
        assert "2-row coverage: n/a (fewer than 2 rows)" in out

    def test_parse_error_exit_1(self, tmp_path, capsys):
        path = tmp_path / "garbage.txt"
        path.write_text("not a witness\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 1
        assert "line 1" in err

    def test_non_utf8_file_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"biramsey-witness v1\n\xff\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 1
        assert err.startswith("parse error: ")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("biramsey-witness v1\nm=1 n=2 t=1\n1" + "0" * 4400 + ": 1\n", 3),
            ("biramsey-witness v1\nm=1 n=1" + "0" * 4400 + " t=1\n1: 1\n", 2),
        ],
        ids=["row-index", "parameter"],
    )
    def test_overlong_number_is_a_parse_error(self, tmp_path, capsys, text, line):
        path = tmp_path / "long.txt"
        path.write_text(text)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"parse error: line {line}: ")

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(capsys, "verify", "/nonexistent/path.txt")
        assert code == 1


class TestFixturesEmit:
    def test_stdout_target_carries_the_witness_alone(self, capfd):
        # capfd: the witness is written to file descriptor 1, not sys.stdout
        code, out, err = run(capfd, "fixtures", "emit", "witness_6x39", "/dev/stdout")
        assert code == 0
        assert parse_witness(out).valid
        assert err == "wrote witness_6x39 (6x39, t=5) to /dev/stdout\n"

    def test_star_requires_parameters(self, tmp_path, capsys):
        code, _, err = run(capsys, "fixtures", "emit", "star", str(tmp_path / "s.txt"))
        assert code == 2
        assert "star needs" in err

    def test_emitted_star_parses(self, tmp_path, capsys):
        path = tmp_path / "star.txt"
        code, _, _ = run(
            capsys, "fixtures", "emit", "star", str(path), "-m", "5", "-n", "100", "-t", "5"
        )
        assert code == 0
        cert = parse_witness(path.read_text())
        assert cert.valid
        assert (cert.graph.m, cert.graph.n) == (5, 100)


class TestArrows:
    def test_arrows_exit_0(self, capsys):
        code, out, _ = run(capsys, "arrows", "-m", "5", "-n", "5", "-t", "2")
        assert code == 0
        assert "verdict: ARROWS" in out
        assert re.search(r"nodes expanded: \d+", out)
        assert "prunes:" in out

    def test_not_arrows_exit_3_and_witness(self, tmp_path, capsys):
        path = tmp_path / "witness.txt"
        code, out, _ = run(
            capsys, "arrows", "-m", "4", "-n", "4", "-t", "2", "-o", str(path)
        )
        assert code == 3
        assert "verdict: NOT_ARROWS" in out
        cert = parse_witness(path.read_text())
        assert cert.valid

    def test_budget_exit_4(self, capsys):
        code, out, _ = run(
            capsys, "arrows", "-m", "5", "-n", "5", "-t", "2", "--budget-nodes", "2"
        )
        assert code == 4
        assert "verdict: BUDGET_EXHAUSTED" in out

    def test_no_prune_and_threads_flags(self, capsys):
        code, out, _ = run(
            capsys,
            "arrows", "-m", "4", "-n", "4", "-t", "2",
            "--no-prune", "coverage", "--no-prune", "degree-cap",
            "--threads", "3",
        )
        assert code == 3

    def test_bad_rule_name_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["arrows", "-m", "2", "-n", "2", "-t", "2", "--no-prune", "magic"])

    def test_nan_time_budget_exit_2(self, capsys):
        code, out, err = run(
            capsys, "arrows", "-m", "4", "-n", "4", "-t", "2", "--budget-secs", "nan"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: time budget must be positive")


class TestOutputPaths:
    @pytest.mark.parametrize(
        "argv",
        [
            ("arrows", "-m", "4", "-n", "4", "-t", "2", "-o"),
            ("export-cnf", "-m", "3", "-n", "3", "-t", "2", "-o"),
            ("fixtures", "emit", "witness_6x39"),
        ],
        ids=["arrows", "export-cnf", "fixtures-emit"],
    )
    def test_unwritable_output_exit_1(self, argv, tmp_path, capsys):
        path = tmp_path / "missing" / "out.txt"
        code, _, err = run(capsys, *argv, str(path))
        assert code == 1
        assert err.startswith("error: ")
        assert str(path) in err
        assert not path.exists()


    def test_arrows_output_checked_before_search(self, tmp_path, capsys):
        # a missing directory or a directory as the path fails at once: no
        # search runs, so no verdict is printed, and nothing is created
        for path in (tmp_path / "missing" / "w.txt", tmp_path):
            code, out, err = run(
                capsys, "arrows", "-m", "6", "-n", "39", "-t", "5", "-o", str(path)
            )
            assert code == 1, path
            assert "verdict:" not in out, path
            assert err.startswith("error: ") and str(path) in err, path
        assert list(tmp_path.iterdir()) == []


class TestBrfind:
    def test_nonexistent(self, capsys):
        code, out, _ = run(capsys, "brfind", "-m", "5", "-t", "5")
        assert code == 0
        assert "NONEXISTENT" in out
        assert "star construction" in out

    def test_small_exact(self, capsys):
        code, out, _ = run(capsys, "brfind", "-m", "4", "-t", "2", "--limit", "10")
        assert code == 0
        assert "= 7" in out
        assert "witness at n=6: verified" in out

    def test_budget_trip_exit_4(self, capsys):
        code, out, _ = run(capsys, "brfind", "-m", "6", "-t", "5", "--budget-nodes", "10")
        assert code == 4
        assert "BR_6(K_{2,2}, K_{5,5}) >= 8 (undecided: budget exhausted at n=8)" in out

    def test_limit_reached_exit_4(self, capsys):
        code, out, _ = run(capsys, "brfind", "-m", "4", "-t", "2", "--limit", "3")
        assert code == 4
        assert "BR_4(K_{2,2}, K_{2,2}) >= 4 (undecided: no arrowing up to n=3)" in out


class TestExportCnf:
    def test_small_export(self, tmp_path, capsys):
        path = tmp_path / "inst.cnf"
        code, out, err = run(
            capsys, "export-cnf", "-m", "3", "-n", "3", "-t", "2", "-o", str(path)
        )
        assert code == 0
        text = path.read_text()
        assert text.startswith("p cnf 9 18\n")
        assert out == ""
        assert "wrote p cnf 9 18" in err

    def test_stdout_target_carries_the_formula_alone(self):
        # the status line goes to stderr, so the piped bytes are the formula
        # pinned in tests/test_cnf.py and bench/golden.json
        proc = subprocess.run(
            [sys.executable, "-m", "biramsey.cli", "export-cnf",
             "-m", "7", "-n", "8", "-t", "3", "-o", "/dev/stdout"],
            env=_subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            check=True,
        )
        assert (
            hashlib.sha256(proc.stdout).hexdigest()
            == "913eb0c1b99f651daefa4f9c9a44077c63392baad1d3ed1fecf2418a8e55a317"
        )
        assert proc.stderr == b"wrote p cnf 56 2548 to /dev/stdout\n"

    def test_reader_closing_the_pipe_exits_141(self):
        # a reader that stops after one line is normal use of a pipe: the
        # export ends with 128 + SIGPIPE and says nothing on stderr
        proc = subprocess.Popen(
            [sys.executable, "-m", "biramsey.cli", "export-cnf",
             "-m", "7", "-n", "20", "-t", "5", "-o", "/dev/stdout"],
            env=_subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline() == b"p cnf 140 329574\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 128 + signal.SIGPIPE
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()

    def test_directory_target_fails_at_once(self, tmp_path, capsys):
        # checked before the export starts, which writes <target>.part
        # first: the error names the target and nothing is left behind
        code, out, err = run(
            capsys, "export-cnf", "-m", "7", "-n", "30", "-t", "5", "-o", str(tmp_path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and str(tmp_path) in err
        assert list(tmp_path.iterdir()) == []

    def test_usage_error_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "export-cnf", "-m", "3", "-n", "3", "-t", "4",
            "-o", str(tmp_path / "x.cnf"),
        )
        assert code == 2
        assert "error" in err

    def test_sigterm_handler_restored(self, tmp_path, capsys):
        before = signal.getsignal(signal.SIGTERM)
        code, _, _ = run(
            capsys, "export-cnf", "-m", "3", "-n", "3", "-t", "2",
            "-o", str(tmp_path / "x.cnf"),
        )
        assert code == 0
        assert signal.getsignal(signal.SIGTERM) is before

    def test_sigterm_removes_temporary_file(self, tmp_path):
        # terminated mid-export, the command exits 128 + SIGTERM and leaves
        # the target as it was, with no temporary file beside it
        target = tmp_path / "inst.cnf"
        target.write_bytes(b"p cnf 1 1\n1 0\n")
        proc = subprocess.Popen(
            [sys.executable, "-m", "biramsey.cli", "export-cnf",
             "-m", "7", "-n", "30", "-t", "5", "-o", str(target)],
            env=_subprocess_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while not list(tmp_path.glob("inst.cnf.*.part")):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 128 + signal.SIGTERM
        finally:
            proc.kill()
            proc.wait()
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_bytes() == b"p cnf 1 1\n1 0\n"


class TestTable:
    def test_table_runs_and_labels(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        line_m6 = next(
            line for line in out.splitlines()
            if re.match(r".*\b6\s+40\b", line)
        )
        assert "verified-witness" in line_m6
        assert "trusted-literature" in line_m6
        assert f"BR(K_{{2,2}}, K_{{5,5}}) = {BICLIQUE_RAMSEY_2_5}" in out
        assert "does not exist" in out

    def test_registry_contents(self):
        entries = build_table()
        by_key = {(e.left, e.t, e.m): e for e in entries}
        assert by_key[(2, 5, 6)].value == 40
        assert by_key[(2, 5, 7)].value == 30
        assert by_key[(2, 5, 8)].value == 30
        assert by_key[(2, 5, 5)].nonexistent
        assert by_key[(2, 3, 7)].value == 9
        assert by_key[(3, 3, 5)].value == 41
        assert by_key[(2, 4, 13)].value == 14
        for entry in entries:
            if entry.lower_provenance == VERIFIED_WITNESS and not entry.nonexistent:
                assert entry.upper_provenance == TRUSTED_LITERATURE

    def test_rendered_rows_cover_registry(self):
        entries = build_table()
        lines = render_table(entries)
        assert len(lines) >= len(entries)


class TestNoColor:
    def test_no_ansi_when_not_a_tty(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        path = tmp_path / "w.txt"
        run(capsys, "fixtures", "emit", "witness_6x39", str(path))
        _, out, _ = run(capsys, "verify", str(path))
        assert "\x1b[" not in out


class TestGlossaryNote:
    def test_help_explains_standard_arrowing(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["arrows", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "standard sense" in out
        assert "good coloring" in out
