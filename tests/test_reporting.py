"""A failing hypothesis test reports its falsifying example and the run goes
on, under this repo's pytest settings and CI's ``-W error`` (see
``conftest.py``). The check runs pytest in a subprocess on a scratch file
beside a copy of ``conftest.py``."""

import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

SCRATCH_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_given_test_reports_its_example_and_the_run_goes_on(tmp_path):
    shutil.copy(TESTS / "conftest.py", tmp_path)
    (tmp_path / "test_scratch.py").write_text(SCRATCH_TESTS)
    argv = [
        sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "no:cacheprovider",
        "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
        str(tmp_path / "test_scratch.py"),
    ]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
    assert "Falsifying example: test_fails(" in out, out
