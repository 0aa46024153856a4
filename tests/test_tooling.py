"""Tier-1's own machinery: a failing Hypothesis test is reported like any
other failure, and the session goes on."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_later():
    pass
"""


def test_failing_given_test_is_reported_and_the_session_goes_on(tmp_path):
    # The repository's configuration: pyproject.toml (warnings are errors)
    # and tests/conftest.py, loaded as a plugin since the probe lies outside
    # tests/. The probe runs in tmp_path, where Hypothesis writes its patch.
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO / "tests")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "conftest", "-p", "no:cacheprovider", "-rA",
         "test_probe.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_fails(" in out and "x=5," in out
    assert "PASSED test_probe.py::test_later" in out
