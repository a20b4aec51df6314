"""Command-line behaviour: formats, determinism, diagnostics, exit codes."""

import csv
import dataclasses
import io
import json
import math
import subprocess
import sys

import pytest

import menergy.cli as cli
from menergy.cli import ANALYZE_COLUMNS, SWEEP_COLUMNS, main
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
# console entry point


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "menergy.cli", "generate", "complete:2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "A_\n"
