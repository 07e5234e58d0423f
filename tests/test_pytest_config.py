"""The suite's own pytest settings, run on a throwaway test file."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=20)
@given(st.integers())
def test_fails_on_some_integer(n):
    assert n < 5


def test_raises_a_deprecation_warning():
    warnings.warn("an old API", DeprecationWarning)
'''


def test_a_failing_hypothesis_test_reports_its_example(tmp_path):
    # on failure hypothesis's report hook imports libcst, which raises a
    # third-party DeprecationWarning; made an error, it ended the run with
    # INTERNALERROR and no falsifying example.  The suite ignores that one
    # warning, and a test that raises a DeprecationWarning still fails.
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
                          str(tmp_path / "test_probe.py")],
                         capture_output=True, text=True, cwd=tmp_path, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example" in out, out
    assert "FAILED test_probe.py::test_fails_on_some_integer" in out, out
    assert "FAILED test_probe.py::test_raises_a_deprecation_warning - DeprecationWarning" in out, out
