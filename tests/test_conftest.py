"""The suite's own configuration: a failing property test is reported as
one failure, the tests after it still run, and hypothesis writes nothing
into the repository."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

from hypothesis.configuration import storage_directory

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

CASES = """
from hypothesis import given, strategies as st


def test_before():
    pass


@given(st.integers())
def test_property_fails(x):
    assert x < 10


def test_after():
    pass
"""


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    # the suite's warning filter and its conftest, as they are, around one
    # failing property test between two passing tests
    assert 'filterwarnings = ["error"]' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings = error\n", encoding="utf-8")
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_cases.py").write_text(CASES, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(TESTS)])}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout[-2000:]
    assert "1 failed, 2 passed" in run.stdout, run.stdout[-2000:]
    assert not (tmp_path / ".hypothesis").exists()


def test_hypothesis_storage_lies_outside_the_repository():
    # hypothesis caches constants and unicode tables in its home directory
    # even with no example database; conftest points it at a temporary one
    store = storage_directory()
    home = Path(getattr(store, "path", store)).resolve()
    assert home != ROOT and ROOT not in home.parents, home
