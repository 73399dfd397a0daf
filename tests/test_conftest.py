"""The suite's own configuration, run on a throwaway test in a fresh pytest.

conftest.py turns every warning into an error.  A failing Hypothesis test
must still be reported as one failure: the plugin's failure report imports
modules that warn, and that warning must not abort the session.
"""

import os
import pathlib
import subprocess
import sys

import duffing_melnikov

TESTS = pathlib.Path(__file__).resolve().parent
SRC = pathlib.Path(duffing_melnikov.__file__).resolve().parents[1]


def test_a_failing_given_test_is_reported_not_an_internal_error(tmp_path):
    (tmp_path / "conftest.py").write_text((TESTS / "conftest.py").read_text())
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x != x\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--rootdir", str(tmp_path), str(tmp_path)],
                         cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert run.returncode == 1
    assert "1 failed" in out
