"""Command-line interface: formats, determinism, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from confab.cli import main
from confab.torusconf import MAX_K
from confab.verify import VerifyCheck, VerifyReport

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMarkdown:
    def test_table2_cells(self, capsys):
        code, out, err = run(capsys, "table2")
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "| n | S1xS1 | U2 | S1xSU2 | SU3 | Sp2 |"
        assert "| 0 | 1 | 1 | 1 | 1 | 1 |" in lines
        assert "| 10 | 0 | 0 | 0 | 0 | 2 |" in lines

    def test_table1_cells(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == 0
        assert "1 ⊕ a ⊕ b ⊕ 2c" in out
        assert "a ⊕ b" in out
        assert "2std" in out

    def test_paper_convention_changes_the_mixed_column(self, capsys):
        _, derived, _ = run(capsys, "table2")
        _, paper, _ = run(capsys, "table2", "--convention", "paper")
        assert derived != paper
        assert "| 4 | 0 | 3 | 6 | 1 | 0 |" in paper

    def test_conf3(self, capsys):
        code, out, _ = run(capsys, "conf3-u2")
        assert code == 0
        assert "| 3 | 10 |" in out

    def test_circle_line(self, capsys):
        code, out, _ = run(capsys, "circle", "--k", "4")
        assert code == 0
        assert out == "components 6, orbits 3, b1 6\n"

    def test_su2_line(self, capsys):
        code, out, _ = run(capsys, "su2", "--k", "4")
        assert code == 0
        assert out == "components 3, betti (3, 3, 3, 3)\n"

    def test_bound_is_bare(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--family", "sp", "--degree", "3", "--k", "5"
        )
        assert code == 0
        assert out == "5\n"

    def test_ring_presentation(self, capsys):
        code, out, _ = run(capsys, "ring", "--group", "u2")
        assert code == 0
        assert "vanishing products: c1*d2" in out
        _, unordered, _ = run(
            capsys, "ring", "--group", "u2", "--unordered"
        )
        assert "r1 (degree 1), s3 (degree 3)" in unordered

    def test_verify_summary(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert out.splitlines()[-1].endswith("0 FAIL, 1 WARN")
        assert "WARN s1xsu2-convention" in out


class TestJson:
    def test_round_trip_is_byte_identical(self, capsys):
        for argv in (
            ("--format", "json", "table1"),
            ("--format", "json", "table2"),
            ("--format", "json", "conf3-u2"),
            ("--format", "json", "verify"),
        ):
            _, out, _ = run(capsys, *argv)
            parsed = json.loads(out)
            again = (
                json.dumps(
                    parsed, sort_keys=True, ensure_ascii=False, indent=2
                )
                + "\n"
            )
            assert again == out

    def test_identical_runs_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, "--format", "json", "table1")
        _, second, _ = run(capsys, "--format", "json", "table1")
        assert first == second

    def test_table2_schema(self, capsys):
        _, out, _ = run(capsys, "--format", "json", "table2")
        docs = json.loads(out)
        assert [doc["group"] for doc in docs] == [
            "S1xS1", "U2", "S1xSU2", "SU3", "Sp2",
        ]
        u2 = docs[1]
        assert u2["k"] == 2
        assert u2["convention"] == "derived"
        assert [row["dimension"] for row in u2["rows"]] == [1, 2, 2, 3, 3, 1]
        # a dimension table carries no decomposition entries
        assert all("decomposition" not in row for row in u2["rows"])

    def test_table1_schema(self, capsys):
        _, out, _ = run(capsys, "--format", "json", "table1")
        docs = json.loads(out)
        assert len(docs) == 8
        spaces = {(doc["group"], doc["space"]) for doc in docs}
        assert ("Sp2", "flag") in spaces
        sp2_flag = next(
            doc
            for doc in docs
            if doc["group"] == "Sp2" and doc["space"] == "flag"
        )
        top = sp2_flag["rows"][-1]
        assert top == {
            "degree": 8,
            "dimension": 1,
            "decomposition": [{"irrep": "c", "mult": 1}],
        }

    def test_flag_position_is_flexible(self, capsys):
        _, before, _ = run(capsys, "--format", "json", "table2")
        _, after, _ = run(capsys, "table2", "--format", "json")
        assert before == after

    def test_circle_doc(self, capsys):
        _, out, _ = run(capsys, "circle", "--k", "5", "--format", "json")
        assert json.loads(out) == {
            "k": 5,
            "components": 24,
            "betti": [24, 24],
            "reflection_fixed": 0,
            "reflection_orbits": 12,
        }


class TestCsv:
    def test_table2_parses(self, capsys):
        _, out, _ = run(capsys, "--format", "csv", "table2")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "S1xS1", "U2", "S1xSU2", "SU3", "Sp2"]
        assert rows[1] == ["0", "1", "1", "1", "1", "1"]
        assert len(rows) == 12

    def test_verify_parses(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "verify")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["status", "name", "expected", "got"]
        assert {row[0] for row in rows[1:]} == {"PASS", "WARN"}


class TestExitCodes:
    def test_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["no-such-command"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        (
            ("circle", "--k", "1"),
            ("su2", "--k", "0"),
            ("bound", "--family", "u", "--degree", "-1", "--k", "2"),
            ("bound", "--family", "u", "--degree", "2", "--k", "0"),
        ),
        ids=" ".join,
    )
    def test_unsupported_input(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_verify_failure_exits_one(self, capsys, monkeypatch):
        broken = VerifyReport(
            "derived",
            (VerifyCheck("example", "FAIL", "1", "2"),),
        )
        monkeypatch.setattr("confab.cli.verify_all", lambda conv: broken)
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert "1 FAIL" in out

    @pytest.mark.parametrize(
        "command, code", (("table1", 2), ("verify", 2), ("table2", 0))
    )
    def test_stdout_encoding_without_the_symbols(self, command, code):
        # cp1252 has no ⊕ or σ; table2 prints only ASCII
        env = dict(os.environ, PYTHONIOENCODING="cp1252", PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, "-m", "confab.cli", command],
            capture_output=True,
            env=env,
        )
        assert result.returncode == code
        if code == 0:
            assert result.stdout.startswith(b"| n | S1xS1 |")
            assert result.stderr == b""
        else:
            assert result.stdout == b""
            assert result.stderr == (
                b"error: stdout encoding 'cp1252' cannot write '\\u2295'; "
                b"set PYTHONIOENCODING=utf-8\n"
            )

    @pytest.mark.parametrize("command", ("circle", "su2"))
    def test_k_is_bounded(self, capsys, command):
        code, out, err = run(capsys, command, "--k", str(MAX_K))
        assert (code, err) == (0, "")
        assert out.startswith("components ")
        code, out, err = run(capsys, command, "--k", str(MAX_K + 1))
        assert (code, out) == (2, "")
        assert err == f"error: k must be at most {MAX_K}\n"
