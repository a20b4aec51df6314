"""Byte-exact CLI output on a fixed graph6 file of family graphs.

The files under data/golden/ hold what `menergy analyze` and `menergy sweep`
wrote for families.g6; any change to a printed digit, column or class tag
fails here.  They are regenerated only by a change that documents why its
output moves.
"""

from pathlib import Path

import pytest

from menergy.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize(
    "expected,extra",
    [
        ("analyze.csv", ["analyze"]),
        ("analyze.json", ["analyze", "--format", "json"]),
        ("sweep8.csv", ["sweep", "--max-degree", "8"]),
        ("sweep16.csv", ["sweep", "--max-degree", "16"]),
    ],
)
def test_cli_output_matches_golden_bytes(expected, extra, tmp_path):
    out = tmp_path / expected
    code = main([*extra, "--in", str(GOLDEN / "families.g6"), "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / expected).read_bytes()
