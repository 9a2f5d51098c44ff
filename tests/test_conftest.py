"""The test session's own setup in ``conftest.py``."""

import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

_FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 100))
def test_fails(n):
    assert n < 10
'''


def test_failing_property_reports_its_example(tmp_path):
    # under the suite's own configuration and conftest, a failing property
    # shows its falsifying example and no INTERNALERROR
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example: test_fails(" in proc.stdout, proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout
