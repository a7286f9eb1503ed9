"""The repository's pytest settings report a failing property test and go on.

``pyproject.toml`` turns every ``DeprecationWarning`` into an error.  When a
Hypothesis test fails, Hypothesis imports libcst to write the failing
example's patch, and that import warns; unfiltered, the error ended the whole
session with ``INTERNALERROR`` and the tests after it never ran.
"""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TESTS = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after_the_failure():
    pass
'''


def test_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_sample.py").write_text(TESTS)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1
    assert "1 failed, 1 passed" in done.stdout.splitlines()[-1]
