"""Byte-exact CLI output on a fixed graph6 file of family graphs.

The files under data/golden/ hold what `menergy analyze` and `menergy sweep`
wrote for families.g6, and what `menergy generate` wrote for GENERATE_SPECS;
any change to a printed digit, column, class tag or generated edge fails
here.  They are regenerated only by a change that documents why its output
moves.
"""

import json
from pathlib import Path

import pytest

import menergy as me
from menergy.cli import main

from conftest import assert_rounded_up, quartic_contraction

GOLDEN = Path(__file__).parent / "data" / "golden"

# Every family kind, G(n, p) at several densities and seeds, and one union.
GENERATE_SPECS = (
    "complete:1 complete:2 complete:7 complete:40 cycle:3 cycle:4 cycle:13 path:1 path:2"
    " path:9 star:1 star:8 bipartite:1:1 bipartite:3:5 bipartite:6:2 petersen heawood"
    " rook:2 rook:3 rook:5 projective:2 projective:3 projective:5 gnp:0:0.5:1 gnp:1:0.5:1"
    " gnp:8:0:1 gnp:8:1:1 gnp:8:0.2:0 gnp:8:0.2:6 gnp:9:0.5:3 gnp:12:0.3:42 gnp:16:0.7:5"
    " gnp:20:0.1:7 gnp:24:0.5:4 gnp:31:0.9:11 gnp:40:0.4:2 gnp:40:0.05:9"
    " union:complete:2,cycle:5,star:3,gnp:10:0.6:8,petersen"
).split()


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


def test_generate_output_matches_golden_bytes(tmp_path):
    out = tmp_path / "generate.g6"
    assert main(["generate", *GENERATE_SPECS, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "generate.g6").read_bytes()


def test_golden_quartic_bounds_are_the_exact_contraction_rounded_up():
    lines = (GOLDEN / "families.g6").read_text().split()
    rows = json.loads((GOLDEN / "analyze.json").read_text())
    assert len(rows) == len(lines)
    for line, row in zip(lines, rows):
        s = me.moment_summary(me.parse_graph6(line))
        if s.m:
            assert_rounded_up(row["quartic_bound"], quartic_contraction(s))
