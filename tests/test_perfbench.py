"""The benchmark's child process runs against this source tree.

``perfbench/child.py`` binds confab names by attribute: its traced run wraps
public functions in spans and counts calls to ``QMatrix.mul`` and
``weyl.char_matrix_poly``.  Removing or renaming one of them breaks the
benchmark, so these tests run one traced table job and one traced CLI job
the way ``perfbench/run.py`` does (a fresh interpreter with ``src`` on
``PYTHONPATH``) and compare the result line with ``perfbench/golden.json``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
