"""Byte-for-byte stdout and exit code of the user-facing invocations.

``golden_cli.json`` holds, per invocation, the argv, the exit code and the
exact stdout, captured from ``confab.cli.main``: first before the Weyl data
moved from enumerated matrix groups to cycle types, then (``ring`` in every
format and convention, ``circle``, ``su2`` and ``bound`` in json and csv)
before the commands were rebuilt on one document model.  Any change to a
printed byte fails here.
"""

import json
from pathlib import Path

import pytest

from confab.cli import main

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_stdout_matches_capture(case, capsysbinary):
    code = main(list(case["argv"]))
    assert code == case["code"]
    assert capsysbinary.readouterr().out == case["stdout"].encode("utf-8")
