"""Command-line behaviour: formats, determinism, diagnostics, exit codes."""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import menergy as me
import menergy.cli as cli
from menergy.cli import ANALYZE_COLUMNS, SWEEP_COLUMNS, main
from menergy.graph6 import MAX_VERTICES
from menergy.graphs import Graph
from menergy.report import SOUNDNESS_RTOL
from menergy.spectral import TRACE_MAX_VERTICES


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# analyze


def test_analyze_generated_petersen(capsys):
    code, out, err = run_cli(["analyze", "--gen", "petersen"], capsys)
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert tuple(header) == ANALYZE_COLUMNS
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["n"] == "10"
    assert row["m"] == "15"
    assert row["max_degree"] == "3"
    assert row["zagreb"] == "90"
    assert row["quad_count"] == "0"
    assert row["m2"] == "30"
    assert row["m4"] == "150"
    assert float(row["energy"]) == pytest.approx(16.0, rel=1e-9)
    assert float(row["quartic_bound"]) == pytest.approx((30 + 60 * math.sqrt(2)) / 7, rel=1e-9)
    # Regular and quadrilateral-free, so the regular-graph formula agrees.
    assert float(row["van_dam_bound"]) == pytest.approx(float(row["quartic_bound"]), rel=1e-12)
    assert float(row["tightness"]) == pytest.approx(float(row["quartic_bound"]) / 16.0, rel=1e-9)
    assert row["classification"] == "NotTight"
    assert row["connected"] == "true"
    assert row["clamped"] == "false"


def test_analyze_is_byte_identical_between_runs(capsys):
    _, first, _ = run_cli(["analyze", "--gen", "gnp:20:0.8:3"], capsys)
    _, second, _ = run_cli(["analyze", "--gen", "gnp:20:0.8:3"], capsys)
    assert first == second


def test_analyze_json_mirrors_csv(capsys):
    code, out_csv, _ = run_cli(["analyze", "--gen", "heawood"], capsys)
    assert code == 0
    code, out_json, _ = run_cli(["analyze", "--gen", "heawood", "--format", "json"], capsys)
    assert code == 0
    header, rows = parse_csv(out_csv)
    csv_row = dict(zip(header, rows[0]))
    json_rows = json.loads(out_json)
    assert len(json_rows) == 1
    jrow = json_rows[0]
    assert list(jrow.keys()) == list(ANALYZE_COLUMNS)
    for key, jval in jrow.items():
        if isinstance(jval, bool):
            assert csv_row[key] == ("true" if jval else "false")
        elif isinstance(jval, float):
            assert float(csv_row[key]) == pytest.approx(jval, rel=1e-11)
        else:
            assert csv_row[key] == str(jval)


def test_analyze_star_has_no_regular_bound(capsys):
    _, out, _ = run_cli(["analyze", "--gen", "star:4"], capsys)
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["van_dam_bound"] == ""
    assert float(row["energy"]) == pytest.approx(4.0, rel=1e-9)


def test_analyze_disconnected_union(capsys):
    _, out, _ = run_cli(["analyze", "--gen", "union:complete:2,complete:2"], capsys)
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["connected"] == "false"
    assert row["classification"] == "TightUnclassified"


def test_analyze_graph6_file_multiple_graphs(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    code, _, _ = run_cli(["generate", "complete:4", "cycle:5", "--out", str(path)], capsys)
    assert code == 0
    code, out, err = run_cli(["analyze", "--in", str(path)], capsys)
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    assert len(rows) == 2
    assert rows[0][0] == "4" and rows[1][0] == "5"


def test_analyze_edgelist_input(tmp_path, capsys):
    path = tmp_path / "tri.edges"
    path.write_text("n 3\n0 1\n1 2\n0 2\n")
    code, out, err = run_cli(["analyze", "--in", str(path), "--in-format", "edgelist"], capsys)
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["n"] == "3" and row["m"] == "3"
    assert row["classification"] == "Complete"


def test_analyze_missing_file(capsys):
    code, out, err = run_cli(["analyze", "--in", "/nonexistent/x.g6"], capsys)
    assert code == 1
    assert out == ""
    assert "cannot read" in err


def test_analyze_bad_graph6_line_is_located(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("A_\nA!\n")
    code, out, err = run_cli(["analyze", "--in", str(path)], capsys)
    assert code == 1
    assert "line 2" in err


def test_analyze_bad_edgelist_line_is_located(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("n 3\n0 1\n1 9\n")
    code, out, err = run_cli(["analyze", "--in", str(path), "--in-format", "edgelist"], capsys)
    assert code == 1
    assert "line 3" in err


def test_analyze_out_file(tmp_path, capsys):
    path = tmp_path / "report.csv"
    code, out, _ = run_cli(["analyze", "--gen", "complete:3", "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    text = path.read_text()
    assert text.startswith("n,m,")
    assert text.endswith("\n")


def test_fail_on_violation_passes_on_sound_reports(capsys):
    code, _, err = run_cli(["analyze", "--gen", "petersen", "--fail-on-violation"], capsys)
    assert code == 0
    assert "violation" not in err


def test_fail_on_violation_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(cli, "soundness_ok", lambda energy, upper, lower=0.0: False)
    code, out, err = run_cli(["analyze", "--gen", "petersen", "--fail-on-violation"], capsys)
    assert code == 2
    assert "1 soundness violation(s)" in err
    # The report is still emitted; the exit code is the alarm.
    assert out.startswith("n,m,")


def test_sweep_of_ffj_to_degree_fourteen_is_sound(tmp_path, capsys):
    # 7 vertices, 7 edges, energy 2 + 4*sqrt(2).  A float-checked certificate
    # printed 7.6568518357 at degree 14 with upper_certified=true; the exact
    # one may not undercut the energy at any degree up to 16.
    path = tmp_path / "ffj.g6"
    path.write_text("FFj??\n")
    code, out, _ = run_cli(
        ["sweep", "--in", str(path), "--max-degree", "16", "--fail-on-violation"], capsys
    )
    header, rows = parse_csv(out)
    for row in (dict(zip(header, r)) for r in rows):
        energy = float(row["energy"])
        if row["upper_certified"] == "true":
            slack = SOUNDNESS_RTOL * max(1.0, energy)
            assert float(row["lp_upper"]) >= energy - slack, row["degree"]
    assert code == 0


def test_analyze_refuses_graph_above_vertex_cap(tmp_path, capsys):
    n = TRACE_MAX_VERTICES + 1
    body = "?" * ((n * (n - 1) // 2 + 5) // 6)  # no edges
    header = "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    path = tmp_path / "big.g6"
    path.write_text("A_\n" + header + body + "\n")
    code, out, err = run_cli(["analyze", "--in", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("line 2:") and "cap" in err


# ---------------------------------------------------------------------------
# generate


def test_generate_k2_graph6(capsys):
    code, out, err = run_cli(["generate", "complete:2"], capsys)
    assert code == 0 and err == ""
    assert out == "A_\n"


def test_generate_multiple_specs(capsys):
    code, out, _ = run_cli(["generate", "complete:2", "complete:2", "path:3"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0] == lines[1] == "A_"


def test_generate_bad_spec(capsys):
    code, out, err = run_cli(["generate", "tesseract:4"], capsys)
    assert code == 1
    assert out == ""
    assert "tesseract" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_table_shape_and_bracketing(capsys):
    code, out, err = run_cli(["sweep", "--gen", "petersen", "--max-degree", "4"], capsys)
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert tuple(header) == SWEEP_COLUMNS
    assert [r[2] for r in rows] == ["2", "4"]
    energy = float(rows[0][-1])
    uppers = [float(r[3]) for r in rows]
    lowers = [float(r[6]) for r in rows]
    assert uppers[1] <= uppers[0] + 1e-12
    assert lowers[1] >= lowers[0] - 1e-12
    for up, lo in zip(uppers, lowers):
        assert lo - 1e-6 <= energy <= up + 1e-6
    assert all(r[0] == "0" and r[1] == "petersen" for r in rows)
    assert all(r[5] == "true" and r[8] == "true" for r in rows)
    # Degree-4 LP agrees with the closed-form column within grid slack.
    assert float(rows[1][3]) == pytest.approx(float(rows[1][9]), rel=1e-4)


def test_sweep_json(capsys):
    code, out, _ = run_cli(
        ["sweep", "--gen", "complete:2", "--max-degree", "2", "--format", "json"], capsys
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["degree"] == 2
    assert rows[0]["upper_certified"] is True
    assert rows[0]["lp_upper"] == pytest.approx(2.0, abs=1e-6)
    assert rows[0]["lp_lower"] == pytest.approx(2.0, abs=1e-6)


def test_sweep_rejects_odd_max_degree(capsys):
    code, out, err = run_cli(["sweep", "--gen", "petersen", "--max-degree", "3"], capsys)
    assert code == 1
    assert out == ""
    assert "degree" in err


def test_sweep_rejects_max_degree_above_lp_cap(capsys):
    code, out, err = run_cli(["sweep", "--gen", "petersen", "--max-degree", "18"], capsys)
    assert code == 1
    assert out == ""
    assert "degree" in err


@pytest.mark.parametrize("bad", [-2, 0, 3, 18])
def test_sweep_degree_rule_is_the_library_rule(bad, capsys):
    # One definition in polyopt: the command line prints the error bound_sweep raises.
    with pytest.raises(ValueError) as info:
        me.bound_sweep(me.petersen(), bad)
    argv = ["sweep", "--gen", "petersen", "--max-degree", str(bad)]
    assert run_cli(argv, capsys) == (1, "", f"{info.value}\n")
    assert str(info.value) == f"max degree must be even in 2..{me.polyopt.MAX_LP_DEGREE}, got {bad}"


def test_sweep_refuses_graph_above_vertex_cap(tmp_path, capsys):
    path = tmp_path / "big.edges"
    path.write_text(f"n {TRACE_MAX_VERTICES + 1}\n0 1\n")
    code, out, err = run_cli(
        ["sweep", "--in", str(path), "--in-format", "edgelist", "--max-degree", "2"], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"{path}:") and "cap" in err


def test_sweep_lets_unexpected_value_errors_propagate(monkeypatch, capsys):
    def broken(g, max_degree):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr(cli, "bound_sweep", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["sweep", "--gen", "petersen", "--max-degree", "2"])


def test_sweep_gate_uses_the_soundness_tolerance(monkeypatch, capsys):
    # 5e-7 relative below the energy: outside SOUNDNESS_RTOL = 1e-7.
    real = cli.bound_sweep

    def undercut(g, max_degree):
        energy = 16.0  # Petersen
        return tuple(
            dataclasses.replace(
                e, upper=dataclasses.replace(e.upper, objective=energy * (1 - 5e-7))
            )
            for e in real(g, max_degree)
        )

    monkeypatch.setattr(cli, "bound_sweep", undercut)
    code, out, err = run_cli(
        ["sweep", "--gen", "petersen", "--max-degree", "2", "--fail-on-violation"], capsys
    )
    assert code == 2
    assert "1 bound violation(s)" in err


def test_sweep_edgeless_graph_fails_cleanly(capsys):
    code, out, err = run_cli(["sweep", "--gen", "path:1", "--max-degree", "2"], capsys)
    assert code == 1
    assert "edge" in err


def test_sweep_cycle9_to_degree_ten_is_certified(capsys):
    # Bland's rule alone needed more than 50000 pivots for the degree-10 lower bound.
    code, out, err = run_cli(["sweep", "--gen", "cycle:9", "--max-degree", "10"], capsys)
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert [r[header.index("degree")] for r in rows] == ["2", "4", "6", "8", "10"]
    for r in rows:
        row = dict(zip(header, r))
        assert row["upper_certified"] == "true" and row["lower_certified"] == "true"
        assert float(row["lp_lower"]) <= float(row["energy"]) <= float(row["lp_upper"])


def test_sweep_multiple_graphs_indexed(tmp_path, capsys):
    path = tmp_path / "two.g6"
    run_cli(["generate", "complete:3", "cycle:4", "--out", str(path)], capsys)
    code, out, _ = run_cli(["sweep", "--in", str(path), "--max-degree", "2"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert [(r[0], r[1]) for r in rows] == [("0", "line 1"), ("1", "line 2")]


# ---------------------------------------------------------------------------
# input errors and the soundness gate, shared by analyze and sweep

COMMANDS = {"analyze": ["analyze"], "sweep": ["sweep", "--max-degree", "2"]}


@pytest.mark.parametrize("command", COMMANDS)
def test_missing_file_fails_cleanly(command, capsys):
    code, out, err = run_cli(COMMANDS[command] + ["--in", "/nonexistent/x.g6"], capsys)
    assert code == 1
    assert out == ""
    assert "cannot read" in err


@pytest.mark.parametrize("command", COMMANDS)
def test_bad_graph6_line_is_located(command, tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("A_\nA!\n")
    code, out, err = run_cli(COMMANDS[command] + ["--in", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("line 2:")


@pytest.mark.parametrize("command", COMMANDS)
def test_bad_edgelist_line_is_located(command, tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("n 3\n0 1\n1 9\n")
    code, out, err = run_cli(
        COMMANDS[command] + ["--in", str(path), "--in-format", "edgelist"], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"{path}: line 3:")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("in_format", ["graph6", "edgelist"])
def test_graph_above_vertex_cap_is_refused(command, in_format, tmp_path, capsys):
    n = TRACE_MAX_VERTICES + 1
    path = tmp_path / "big"
    if in_format == "graph6":
        body = "?" * ((n * (n - 1) // 2 + 5) // 6)  # no edges
        header = "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
        path.write_text("A_\n" + header + body + "\n")
        where = "line 2:"
    else:
        path.write_text(f"n {n}\n0 1\n")
        where = f"{path}: line 1:"
    code, out, err = run_cli(
        COMMANDS[command] + ["--in", str(path), "--in-format", in_format], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith(where) and "cap" in err


@pytest.mark.parametrize("command", COMMANDS)
def test_graph6_line_above_vertex_cap_is_refused_at_its_size_field(command, tmp_path, capsys):
    # n = 3000 needs 749 750 body groups; the 6 given would be "truncated" once decoded.
    path = tmp_path / "big.g6"
    path.write_text("~" + "".join(chr(63 + ((3000 >> s) & 63)) for s in (12, 6, 0)) + "?" * 6 + "\n")
    code, out, err = run_cli(COMMANDS[command] + ["--in", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"line 1: n=3000 exceeds the dense-matrix cap {TRACE_MAX_VERTICES}\n"


@pytest.mark.parametrize("command", COMMANDS)
def test_generated_graph_above_vertex_cap_is_refused(command, capsys):
    code, out, err = run_cli(COMMANDS[command] + ["--gen", "cycle:3000"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"cycle:3000: n=3000 exceeds the dense-matrix cap {TRACE_MAX_VERTICES}\n"


def _must_not_build(*args, **kwargs):
    raise AssertionError("built a graph above the cap")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "spec, n",
    [
        ("cycle:3000", 3000),
        ("gnp:4000:0.5:1", 4000),
        ("union:complete:2,cycle:2047", 2049),
        ("union:petersen,rook:1000", 1000010),
    ],
)
def test_generated_spec_above_vertex_cap_is_refused_before_building(
    command, spec, n, monkeypatch, capsys
):
    monkeypatch.setattr(Graph, "_from_pairs", staticmethod(_must_not_build))
    code, out, err = run_cli(COMMANDS[command] + ["--gen", spec], capsys)
    assert code == 1
    assert out == ""
    assert err == f"{spec}: n={n} exceeds the dense-matrix cap {TRACE_MAX_VERTICES}\n"


def test_generate_refuses_spec_above_graph6_size_field_before_building(monkeypatch, capsys):
    monkeypatch.setattr(Graph, "_from_pairs", staticmethod(_must_not_build))
    code, out, err = run_cli(["generate", f"cycle:{MAX_VERTICES + 1}", "petersen"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"graph too large to encode: n={MAX_VERTICES + 1} exceeds {MAX_VERTICES}\n"


LIBRARY_ABOVE_CAP = {
    "eigenvalues": me.eigenvalues,
    "trace_moments": lambda g: me.trace_moments(g, 4),
    "moment_summary": me.moment_summary,
    "analyze_graph": me.analyze_graph,
    "bound_sweep": lambda g: me.bound_sweep(g, 4),
    "is_connected": me.is_connected,
    "bipartition": me.bipartition,
}


@pytest.mark.parametrize("entry", ["cli-graph6", "cli-gen", *LIBRARY_ABOVE_CAP])
def test_every_vertex_cap_entry_point_raises_the_one_cap_error(entry, tmp_path, capsys):
    if entry.startswith("cli"):
        n = 3000
        if entry == "cli-graph6":
            path = tmp_path / "big.g6"
            path.write_text("~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0)) + "\n")
            argv, where, content = ["analyze", "--in", str(path)], "line 1", path.read_text()
        else:
            argv, where, content = ["analyze", "--gen", f"cycle:{n}"], f"cycle:{n}", None
        with pytest.raises(cli.InputError) as info:
            next(cli._input_graphs(cli.build_parser().parse_args(argv), content))
        err = info.value.__cause__
        assert run_cli(argv, capsys) == (1, "", f"{where}: {err}\n")
    else:
        n = TRACE_MAX_VERTICES + 1
        with pytest.raises(me.CapExceededError) as info:
            LIBRARY_ABOVE_CAP[entry](Graph.from_edges(n, [(0, 1)]))
        err = info.value
    assert type(err) is me.CapExceededError and isinstance(err, me.GraphError)
    assert str(err) == f"n={n} exceeds the dense-matrix cap {TRACE_MAX_VERTICES}"


def test_edge_list_header_above_cap_stays_a_located_graph_error():
    with pytest.raises(me.GraphError) as info:
        me.parse_edge_list(f"\nn {TRACE_MAX_VERTICES + 1}\n0 1\n")
    assert type(info.value) is me.GraphError
    assert str(info.value) == (
        f"line 2: n={TRACE_MAX_VERTICES + 1} exceeds the dense-matrix cap {TRACE_MAX_VERTICES}"
    )


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "in_format, data, line",
    [
        pytest.param("graph6", b"A_\n\xc3\xa9\n", 2, id="graph6-utf8"),
        pytest.param("graph6", b"A_\r\nA_\r\n\r\nBw\xff\n", 4, id="graph6-crlf"),
        pytest.param("edgelist", b"n 3\n0 1\n1 2\xa0\n", 3, id="edgelist-nbsp"),
    ],
)
def test_non_ascii_input_is_located(command, in_format, data, line, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    code, out, err = run_cli(
        COMMANDS[command] + ["--in", str(path), "--in-format", in_format], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"{path}: line {line}: non-ASCII byte")
    assert "Traceback" not in err


def test_edgelist_header_far_above_cap_fails_at_once(tmp_path):
    path = tmp_path / "huge.edges"
    path.write_text("n 1000000000\n0 1\n")
    argv = ["analyze", "--in", str(path), "--in-format", "edgelist"]
    proc = subprocess.run(
        [sys.executable, "-m", "menergy.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"{path}: line 1:") and "cap" in proc.stderr


@pytest.mark.parametrize(
    "energy, upper, lower, ok",
    [
        (16.0, 16.0, 16.0, True),
        (16.0, 16.0 * (1 - 0.5e-7), 0.0, True),  # inside the slack
        (16.0, 16.0 * (1 - 5e-7), 0.0, False),  # upper undercuts
        (16.0, 17.0, 16.0 * (1 + 0.5e-7), True),
        (16.0, 17.0, 16.0 * (1 + 5e-7), False),  # lower exceeds
        (0.0, -0.5e-7, 0.0, True),  # absolute slack below energy 1
        (0.0, -5e-7, 0.0, False),
        (0.0, 0.0, 5e-7, False),
    ],
)
def test_soundness_ok_gates_both_sides(energy, upper, lower, ok):
    assert cli.soundness_ok(energy, upper, lower) is ok


def test_sweep_gate_catches_a_lower_bound_above_the_energy(monkeypatch, capsys):
    real = cli.bound_sweep

    def overshoot(g, max_degree):
        return tuple(
            dataclasses.replace(e, lower=dataclasses.replace(e.lower, objective=16.0 * (1 + 5e-7)))
            for e in real(g, max_degree)
        )

    monkeypatch.setattr(cli, "bound_sweep", overshoot)
    code, out, err = run_cli(
        ["sweep", "--gen", "petersen", "--max-degree", "4", "--fail-on-violation"], capsys
    )
    assert code == 2
    assert "2 bound violation(s)" in err
    assert out.startswith("graph,label,")


# ---------------------------------------------------------------------------
# --out handling


def _must_not_run(*args, **kwargs):
    raise AssertionError("computed before the output was opened")


@pytest.mark.parametrize(
    "argv, hook",
    [
        pytest.param(["analyze", "--gen", "petersen"], "analyze_graph", id="analyze"),
        pytest.param(["sweep", "--gen", "petersen", "--max-degree", "4"], "bound_sweep", id="sweep"),
        pytest.param(["generate", "petersen"], "parse_family_spec", id="generate"),
    ],
)
def test_unwritable_out_fails_before_any_work(argv, hook, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, hook, _must_not_run)
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(argv + ["--out", str(target)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"cannot write {target}: No such file or directory\n"


def test_out_naming_a_directory_is_refused(tmp_path, capsys):
    code, out, err = run_cli(["analyze", "--gen", "petersen", "--out", str(tmp_path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"cannot write {tmp_path}:")


def test_sweep_out_file_matches_stdout(tmp_path, capsys):
    argv = ["sweep", "--gen", "cycle:5", "--max-degree", "4"]
    _, expected, _ = run_cli(argv, capsys)
    path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(argv + ["--out", str(path)], capsys)
    assert code == 0 and out == ""
    assert path.read_text() == expected


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["analyze", "--gen", "nosuch:3"], id="analyze-bad-spec"),
        pytest.param(["analyze", "--in", "MISSING"], id="analyze-missing-input"),
        pytest.param(["sweep", "--gen", "complete:1", "--max-degree", "4"], id="sweep-edgeless"),
        pytest.param(["generate", "petersen", "nosuch:3"], id="generate-bad-spec"),
    ],
)
def test_failed_run_leaves_existing_out_whole(argv, tmp_path, capsys):
    path = tmp_path / "results.csv"
    path.write_text("earlier results\n")
    argv = [str(tmp_path / a) if a == "MISSING" else a for a in argv]
    code, out, err = run_cli(argv + ["--out", str(path)], capsys)
    assert code == 1 and out == "" and err
    assert path.read_text() == "earlier results\n"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["analyze", "--gen", "nosuch:3"], id="analyze-bad-spec"),
        pytest.param(["sweep", "--in", "EDGELESS-SECOND", "--max-degree", "4"], id="sweep-edgeless"),
        pytest.param(["generate", "petersen", "nosuch:3"], id="generate-bad-spec"),
    ],
)
def test_failed_run_leaves_no_out_file_it_created(argv, tmp_path, capsys):
    source = tmp_path / "two.g6"
    source.write_text(me.write_graph6(me.petersen()) + "\n" + me.write_graph6(me.complete(1)) + "\n")
    argv = [str(source) if a == "EDGELESS-SECOND" else a for a in argv]
    path = tmp_path / "fresh.csv"
    code, out, err = run_cli(argv + ["--out", str(path)], capsys)
    assert code == 1 and out == "" and err
    assert not path.exists()


def test_failed_run_keeps_an_empty_out_that_existed(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.touch()
    code, out, err = run_cli(["analyze", "--gen", "nosuch:3", "--out", str(path)], capsys)
    assert code == 1 and out == "" and err
    assert path.read_bytes() == b""


@pytest.mark.parametrize("command", COMMANDS)
def test_out_naming_a_missing_input_reports_the_read_error(command, tmp_path, capsys):
    ghost = tmp_path / "ghost.g6"
    code, out, err = run_cli(COMMANDS[command] + ["--in", str(ghost), "--out", str(ghost)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"cannot read {ghost}: ")
    assert not ghost.exists()


def test_out_may_name_the_input_file(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    run_cli(["generate", "petersen", "cycle:5", "--out", str(path)], capsys)
    _, expected, _ = run_cli(["analyze", "--in", str(path)], capsys)
    code, out, err = run_cli(["analyze", "--in", str(path), "--out", str(path)], capsys)
    assert code == 0 and out == "" and err == ""
    assert path.read_text() == expected
    assert len(parse_csv(expected)[1]) == 2


def _readme_examples():
    """(argv, shown lines) for every `$ menergy ...` in README.md that shows its output."""
    examples = []
    for block in (Path(__file__).resolve().parents[1] / "README.md").read_text().split("\n\n"):
        lines = [ln for ln in block.splitlines() if not ln.startswith(("#", "```"))]
        command, *shown = lines or [""]
        if command.startswith("$ menergy ") and shown:
            examples.append((shlex.split(command)[2:], shown))
    return examples


def test_readme_examples_print_what_readme_shows(capsys):
    examples = _readme_examples()
    assert [argv[0] for argv, _ in examples] == ["analyze", "generate", "sweep"]
    for argv, shown in examples:
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) >= len(shown)
        for want, got in zip(shown, lines):
            assert got.startswith(want.removesuffix("...")) if want.endswith("...") else got == want


@pytest.mark.parametrize("command", [["analyze", "--gen", "petersen"], ["generate", "petersen"]])
def test_out_may_name_a_device(command, capsys):
    code, out, err = run_cli(command + ["--out", os.devnull], capsys)
    assert code == 0 and out == "" and err == ""


def test_out_replaces_a_longer_file(tmp_path, capsys):
    path = tmp_path / "k2.g6"
    path.write_text("x" * 1000 + "\n")
    code, _, _ = run_cli(["generate", "complete:2", "--out", str(path)], capsys)
    assert code == 0
    assert path.read_text() == "A_\n"


def test_out_is_utf8_and_holds_a_non_ascii_input_path(tmp_path, capsys):
    source = tmp_path / "grafé.txt"
    source.write_text("n 3\n0 1\n1 2\n")
    argv = ["sweep", "--in", str(source), "--in-format", "edgelist", "--max-degree", "4"]
    _, expected, _ = run_cli(argv, capsys)
    assert "grafé" in expected
    path = tmp_path / "out.csv"
    path.write_text("earlier results\n")
    code, out, err = run_cli(argv + ["--out", str(path)], capsys)
    assert (code, out, err) == (0, "", "")
    assert path.read_bytes() == expected.encode("utf-8")


# ---------------------------------------------------------------------------
# fuzzing: mutated input files against networkx

# Printable ASCII plus the control bytes that str.splitlines and str.strip
# treat as line breaks or whitespace, which bytes-oriented readers do not.
FUZZ_CHARS = st.sampled_from(
    [chr(c) for c in range(32, 127)] + list("\t\r\n\x00\x0b\x0c\x1c\x1d\x1e\x1f")
)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = nx.empty_graph(n)
    g.add_edges_from(draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    return g


@st.composite
def mutated(draw, text):
    chars = list(text)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        pos = draw(st.integers(0, max(0, len(chars) - 1)))
        if op == "insert":
            chars.insert(pos, draw(FUZZ_CHARS))
        elif chars and op == "replace":
            chars[pos] = draw(FUZZ_CHARS)
        elif chars:
            del chars[pos]
    return "".join(chars)


def _analyze_file(text, in_format):
    """Run analyze in-process on text; return (code, csv rows, stderr, path)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(text.encode("ascii"))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["analyze", "--in", str(path), "--in-format", in_format])
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    return code, rows, err.getvalue(), str(path)


def _assert_matches(row, g):
    assert int(row["n"]) == g.number_of_nodes()
    assert int(row["m"]) == g.number_of_edges()
    assert int(row["zagreb"]) == sum(d * d for _, d in g.degree())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzzed_graph6_matches_networkx_or_names_the_line(data):
    graphs = data.draw(st.lists(small_graphs(), min_size=1, max_size=3))
    text = data.draw(mutated("".join(nx.to_graph6_bytes(g, header=False).decode() for g in graphs)))
    code, rows, err, path = _analyze_file(text, "graph6")
    if code == 1:
        assert rows == [] and err.startswith("line ") and "Traceback" not in err
        return
    assert code == 0 and err == ""
    # networkx's read_graph6 splits at b"\n" and applies bytes.strip() to each line.
    lines = [ln.strip() for ln in text.encode("ascii").split(b"\n")]
    reference = [nx.from_graph6_bytes(ln) for ln in lines if ln]
    assert len(rows) == len(reference)
    for row, g in zip(rows, reference):
        _assert_matches(row, g)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzzed_edge_list_matches_networkx_or_names_the_line(data):
    g = data.draw(small_graphs())
    text = f"n {g.number_of_nodes()}\n" + "".join(f"{i} {j}\n" for i, j in g.edges())
    text = data.draw(mutated(text))
    code, rows, err, path = _analyze_file(text, "edgelist")
    if code == 1:
        assert rows == [] and "Traceback" not in err
        assert err.startswith(f"{path}: line ") or err == f"{path}: empty edge-list input\n"
        return
    assert code == 0 and err == ""
    lines = [ln for ln in text.split("\n") if ln.strip()]
    n = int(lines[0].split()[1])
    reference = nx.parse_edgelist(lines[1:], nodetype=int, data=False)
    reference.add_nodes_from(range(n))
    assert len(rows) == 1
    _assert_matches(rows[0], reference)


def test_separator_bytes_inside_graph6_are_rejected(capsys, tmp_path):
    # str.splitlines would cut "A_\x1eA_" into two graphs and str.strip would
    # drop a trailing 0x1e; networkx rejects both lines.
    for text in ("A_\x1eA_\n", "A_\nA_\x1e\n", "A_\n\x1c\n"):
        path = tmp_path / "sep.g6"
        path.write_text(text)
        code, out, err = run_cli(["analyze", "--in", str(path)], capsys)
        assert code == 1 and out == "", repr(text)
        assert err.startswith("line 1:" if "\x1eA" in text else "line 2:"), repr(text)


# ---------------------------------------------------------------------------
# console entry point


@pytest.fixture
def fresh_parser():
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


def test_parser_is_built_once_for_repeated_main_calls(fresh_parser, monkeypatch, capsys):
    built = []

    class Counting(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    # Only the CLI module sees the counting class; argparse keeps its own name.
    monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=Counting))
    outputs = [run_cli(["analyze", "--gen", "petersen"], capsys) for _ in range(3)]
    assert built.count("menergy") == 1
    assert outputs[0][0] == 0 and outputs == [outputs[0]] * 3


def test_reused_parser_survives_a_usage_error(fresh_parser, capsys):
    first = run_cli(["analyze", "--gen", "petersen"], capsys)
    parser = cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--gen", "petersen", "--format", "xml"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run_cli(["sweep", "--gen", "petersen", "--max-degree", "4"], capsys)[0] == 0
    # Options of earlier calls do not leak into later ones.
    assert run_cli(["analyze", "--gen", "petersen"], capsys) == first
    assert cli.build_parser() is parser


@pytest.mark.parametrize(
    "argv", [["analyze", "--gen", "petersen"], ["sweep", "--gen", "petersen", "--max-degree", "8"]]
)
def test_closed_output_pipe_exits_quietly(argv):
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "menergy.cli", *argv],
            stdout=w,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "menergy.cli", "generate", "complete:2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "A_\n"


def test_cli_import_pulls_in_neither_fractions_nor_decimal():
    # fractions imports decimal; together they cost about 3 ms of every start.
    code = "import sys, menergy.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
