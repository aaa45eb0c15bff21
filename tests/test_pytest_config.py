"""The suite's pytest settings let a failing hypothesis test report itself.

On a failure hypothesis's pytest plugin imports ``libcst`` to write the
falsifying example as a patch, and that import warns that
``mypy_extensions.TypedDict`` is deprecated; ``pyproject.toml`` turns other
``DeprecationWarning``s into errors, which would abort the session with an
``INTERNALERROR`` before the example is printed or the next test runs.
"""

import shutil
import subprocess
import sys
from pathlib import Path

PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after():
    pass
'''


def test_failing_given_test_reports_and_the_next_test_runs(tmp_path):
    shutil.copy(Path(__file__).resolve().parent.parent / "pyproject.toml", tmp_path)
    (tmp_path / "test_pair.py").write_text(PAIR)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in proc.stdout, out
    assert "Falsifying example: test_fails(" in proc.stdout, out
