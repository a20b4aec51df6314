"""Byte-exact CLI output on a fixed graph6 file of family graphs.

The files under data/golden/ hold what `menergy analyze` and `menergy sweep`
wrote for families.g6; any change to a printed digit, column or class tag
fails here.  They are regenerated only by a change that documents why its
output moves.
"""

import json
from pathlib import Path

import pytest

import menergy as me
from menergy.cli import main

from conftest import assert_rounded_up, quartic_contraction

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


def test_golden_quartic_bounds_are_the_exact_contraction_rounded_up():
    lines = (GOLDEN / "families.g6").read_text().split()
    rows = json.loads((GOLDEN / "analyze.json").read_text())
    assert len(rows) == len(lines)
    for line, row in zip(lines, rows):
        s = me.moment_summary(me.parse_graph6(line))
        if s.m:
            assert_rounded_up(row["quartic_bound"], quartic_contraction(s))
