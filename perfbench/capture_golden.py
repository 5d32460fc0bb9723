"""Write golden.json, the oracle run.py checks every output against.

    python3 perfbench/capture_golden.py

Run this only on a commit whose outputs are trusted: golden.json in the
repository was captured at the seed commit, and later changes are judged
against it.  It records the table dims of every ladder and products tag
(computed through the same child process the benchmark times) and, for
every CLI invocation in the mix, the exit code and the exact stdout.  The
``verify`` invocations record only their exit code: run.py judges them by
exit code 0 and no FAIL line, because their wording is expected to change.
"""

from __future__ import annotations

import json
import platform
import sys

import run


def capture() -> dict:
    runner = run.Runner(seconds=0, golden={})
    tables = {}
    for tag in run.LADDER + run.PRODUCTS:
        got = runner.child({"kind": "table", "tag": tag, "traced": False})
        if got is None:
            raise SystemExit(f"table {tag} failed: {runner.failures}")
        tables[tag] = list(got[1]["dims"])
    cli = {}
    for argv in run.cli_mix():
        got = runner.cli_process(argv)
        if got is None:
            raise SystemExit(f"cli {argv} failed: {runner.failures}")
        _, code, stdout = got
        entry = {"code": code}
        if argv[0] != "verify":
            entry["stdout"] = stdout.decode()
        cli[run.op_key(argv)] = entry
    return {
        "python": platform.python_version(),
        "tables": tables,
        "cli": cli,
    }


if __name__ == "__main__":
    golden = capture()
    with open(run.GOLDEN, "w") as sink:
        json.dump(golden, sink, indent=1, sort_keys=True, ensure_ascii=False)
        sink.write("\n")
    print(f"wrote {run.GOLDEN} ({len(golden['tables'])} tables, "
          f"{len(golden['cli'])} invocations)", file=sys.stderr)
