"""The suite's own pytest settings: a failing property still reports its counterexample."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
"""


def test_failing_property_prints_its_counterexample_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    options = ["-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *options, "test_property.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "Falsifying example: test_fails(" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
