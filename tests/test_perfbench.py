"""The benchmark's child process runs against this source tree.

``perfbench/child.py`` binds confab names by attribute: its traced run wraps
public functions in spans and counts calls to ``QMatrix.mul`` and
``weyl.char_matrix_poly``.  Removing or renaming one of them breaks the
benchmark, so these tests run one traced table job and two traced CLI jobs
the way ``perfbench/run.py`` does (a fresh interpreter with ``src`` on
``PYTHONPATH``) and compare the result line with ``perfbench/golden.json``.
The ``groups.decompose`` span wraps the one decomposition function the
library calls, so the table route's shortcut and every column of the CLI's
``table1`` record one span per decomposition.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from confab.cli import TABLE1_TAGS

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


def run_child(job: dict) -> dict:
    """The result object on the last stdout line of one child.py job."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), json.dumps(job)],
        capture_output=True,
        env=env,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def span_names(result: dict) -> set:
    return {name for name, *_ in result["spans"]}


def test_traced_table_job():
    result = run_child({"kind": "table", "tag": "U2", "traced": True})
    assert result["dims"] == GOLDEN["tables"]["U2"]
    assert result["shortcut"] == result["dims"]
    assert result["h1"] == result["dims"][1]
    assert {
        "weyl.datum",
        "weyl.parse_tag",
        "weyl.flag",
        "torusconf.conf2",
        "weyl.kunneth",
        "weyl.invariants",
        "groups.decompose",
        "tables.shortcut",
    } <= span_names(result)
    assert set(result["counts"]) >= {
        "exact.qmatrix_mul_calls",
        "exact.char_poly_calls",
    }
    spans = result["spans"]
    assert "tables.shortcut" in {
        spans[parent][0]
        for name, _, _, parent in spans
        if name == "groups.decompose"
    }


def test_traced_cli_job():
    argv = ["conf3-u2", "--format", "md", "--convention", "derived"]
    result = run_child({"kind": "cli", "argv": argv, "traced": True})
    expected = GOLDEN["cli"][" ".join(argv)]
    assert (result["code"], result["stdout"]) == (
        expected["code"],
        expected["stdout"],
    )
    assert {"cli.main", "tables.table", "torusconf.conf3"} <= span_names(
        result
    )
    # the free-group route of the U2 triples runs on rows: no route
    # multiplies a QMatrix
    assert result["counts"]["exact.qmatrix_mul_calls"] == 0


def test_traced_table1_job_spans_the_library_decomposition():
    # one groups.decompose span per column: the conf2 and flag characters of
    # every Table 1 group, each decomposed in one pass inside cli.main
    argv = ["table1", "--format", "md", "--convention", "derived"]
    result = run_child({"kind": "cli", "argv": argv, "traced": True})
    expected = GOLDEN["cli"][" ".join(argv)]
    assert (result["code"], result["stdout"]) == (
        expected["code"],
        expected["stdout"],
    )
    spans = result["spans"]
    decompositions = [span for span in spans if span[0] == "groups.decompose"]
    assert len(decompositions) == 2 * len(TABLE1_TAGS)
    assert {spans[parent][0] for *_, parent in decompositions} == {"cli.main"}
