"""The repository's pytest settings report a failing property test by name.

``filterwarnings = ["error"]`` turns every warning into an error, and one
raised while hypothesis's plugin builds a failure report ends the whole run
with INTERNALERROR and no test id.  The settings ignore the one such warning
known to arise in the test dependencies; this test runs a failing ``@given``
test under them in a separate process and reads its report.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''\
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers(0, 0))
def test_always_fails(x):
    assert x < 0
'''


def test_failing_property_test_is_named(tmp_path):
    (tmp_path / "test_fail.py").write_text(FAILING)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fail.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "FAILED test_fail.py::test_always_fails" in output
