"""The repository's pytest configuration, run over a scratch test file in a subprocess."""

import pathlib
import subprocess
import sys

CONFIG = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

SCRATCH_TESTS = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_property(n):
    assert n < 10


def test_deprecated_call():
    warnings.warn("an old call", DeprecationWarning)
'''


def test_a_failing_property_test_prints_its_falsifying_example(tmp_path):
    # hypothesis's failure report imports libcst, whose import warns that
    # mypy_extensions.TypedDict is deprecated: the configuration ignores that one
    # warning, so pytest exits 1 (tests failed) and prints the example, not 3
    # (internal error); every other DeprecationWarning still fails its test
    (tmp_path / "test_scratch.py").write_text(SCRATCH_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(CONFIG), str(tmp_path)],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example: test_property(" in run.stdout
    assert "2 failed" in run.stdout
