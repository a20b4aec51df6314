"""Command-line front end.

    menergy analyze  (--in FILE | --gen SPEC) [--in-format graph6|edgelist]
                     [--format csv|json] [--out FILE] [--fail-on-violation]
    menergy generate SPEC [SPEC ...] [--out FILE]
    menergy sweep    (--in FILE | --gen SPEC) --max-degree K
                     [--format csv|json] [--out FILE] [--fail-on-violation]

graph6 input is one graph per line; edge-list input is one graph per file.
Output ordering and float formatting (12 significant digits) are fixed, so
identical input produces byte-identical CSV.

Exit codes: 0 on success, 1 on unreadable or oversized input (diagnostics name
the line or file), an unwritable --out (opened before any work; a failed run
leaves an existing file whole and removes one it created) or an output pipe
closed by its reader (quietly, with nothing on stderr), 2 when
--fail-on-violation is set and a bound crosses the exact energy by more than
the soundness slack.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext
from functools import cache, partial
from typing import Callable, Iterator, TextIO

from .families import FamilyError, generate, parse_family_spec
from .graph6 import WHITESPACE, Graph6Error, check_encodable, graph6_order, parse_graph6, write_graph6
from .graphs import CapExceededError, Graph, GraphError, check_order, parse_edge_list
from .moments import MomentMismatchError, NoEdgesError
from .polyopt import bound_sweep, check_sweep_degree
from .report import analyze_graph, soundness_ok

ANALYZE_COLUMNS = (
    "n",
    "m",
    "max_degree",
    "zagreb",
    "quad_count",
    "m2",
    "m4",
    "scaled_m4",
    "scaled_m2",
    "scaled_m0",
    "tangency",
    "clamped",
    "energy",
    "quartic_bound",
    "van_dam_bound",
    "tightness",
    "classification",
    "connected",
)

SWEEP_COLUMNS = (
    "graph",
    "label",
    "degree",
    "lp_upper",
    "upper_status",
    "upper_certified",
    "lp_lower",
    "lower_status",
    "lower_certified",
    "quartic_bound",
    "energy",
)


class InputError(Exception):
    """Bad command input or an unwritable --out; the message is the user-facing diagnostic."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _read_input(path: str) -> str:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as err:
        # Number lines the way the parsers do: they end at "\n" only.
        lineno = data.count(b"\n", 0, err.start) + 1
        raise InputError(
            f"{path}: line {lineno}: non-ASCII byte 0x{data[err.start]:02x}"
        ) from None


def _input_graphs(args: argparse.Namespace, text: str | None) -> Iterator[tuple[str, Graph]]:
    """Each input graph and its label, built when reached, from the --gen spec or the --in text."""
    if args.gen is not None:
        try:
            spec = parse_family_spec(args.gen)
            check_order(spec.order)
            g = generate(spec)
        except FamilyError as err:
            raise InputError(f"bad family spec {args.gen!r}: {err}") from err
        except GraphError as err:
            raise InputError(f"{spec}: {err}") from err
        yield g.label, g
        return
    if args.in_format == "edgelist":
        try:
            yield args.infile, parse_edge_list(text)
        except GraphError as err:
            raise InputError(f"{args.infile}: {err}") from err
        return
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip(WHITESPACE):
            continue
        try:  # the size field gives n before n^2 / 2 bits are decoded
            check_order(graph6_order(line))
            yield f"line {lineno}", parse_graph6(line)
        except (Graph6Error, GraphError) as err:
            raise InputError(f"line {lineno}: {err}") from err


def _rewind(sink: TextIO) -> None:
    """Empty an --out file; an existing one is opened for appending, so failed runs leave it whole.

    Appending opens at the end, so a new or empty file, /dev/null (which reads 0) and a
    pipe (not seekable) are left alone; stdout, maybe a file written to before, always is.
    """
    if sink is not sys.stdout and sink.seekable() and sink.tell():
        sink.truncate(0)


def _emit(rows: list[dict], columns: tuple[str, ...], fmt: str, sink: TextIO) -> None:
    _rewind(sink)
    if fmt == "json":
        sink.write(json.dumps([{k: row[k] for k in columns} for row in rows], indent=2) + "\n")
        return
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[k]) for k in columns])


def _report_row(report) -> dict:
    s = report.summary
    t = report.scaled
    return {
        "n": s.n,
        "m": s.m,
        "max_degree": s.max_degree,
        "zagreb": s.zagreb,
        "quad_count": s.quad_count,
        "m2": s.m2,
        "m4": s.m4,
        "scaled_m4": None if t is None else t.m4_scaled,
        "scaled_m2": None if t is None else t.m2_scaled,
        "scaled_m0": None if t is None else t.m0_scaled,
        "tangency": report.tangency,
        "clamped": report.tangency_clamped,
        "energy": report.energy,
        "quartic_bound": report.quartic_bound,
        "van_dam_bound": report.van_dam_bound,
        "tightness": report.tightness,
        "classification": str(report.classification),
        "connected": report.connected,
    }


def _analyze_rows(index: int, label: str, g: Graph) -> list[tuple[dict, bool]]:
    report = analyze_graph(g)
    return [(_report_row(report), soundness_ok(report.energy, report.quartic_bound))]


def _sweep_rows(max_degree: int, index: int, label: str, g: Graph) -> list[tuple[dict, bool]]:
    report = analyze_graph(g)
    out = []
    for entry in bound_sweep(g, max_degree):
        row = {
            "graph": index,
            "label": label,
            "degree": entry.degree,
            "lp_upper": entry.upper.objective,
            "upper_status": entry.upper.status,
            "upper_certified": entry.upper.certified,
            "lp_lower": entry.lower.objective,
            "lower_status": entry.lower.status,
            "lower_certified": entry.lower.certified,
            "quartic_bound": report.quartic_bound,
            "energy": report.energy,
        }
        out.append((row, soundness_ok(report.energy, entry.upper.objective, entry.lower.objective)))
    return out


def _run_batch(
    args: argparse.Namespace,
    text: str | None,
    sink: TextIO,
    graph_rows: Callable[[int, str, Graph], list[tuple[dict, bool]]],
    columns: tuple[str, ...],
) -> int:
    """Emit the rows of every input graph or none; return the number of unsound rows."""
    rows = []
    violations = 0
    try:
        for index, (label, g) in enumerate(_input_graphs(args, text)):
            for row, sound in graph_rows(index, label, g):
                rows.append(row)
                violations += not sound
    except (MomentMismatchError, NoEdgesError, CapExceededError) as err:
        raise InputError(f"{label}: {err}") from err
    _emit(rows, columns, args.format, sink)
    return violations


def cmd_generate(args: argparse.Namespace, sink: TextIO) -> None:
    lines = []
    try:
        for spec_text in args.spec:
            spec = parse_family_spec(spec_text)
            check_encodable(spec.order)  # before building the graph
            lines.append(write_graph6(generate(spec)))
    except (FamilyError, Graph6Error) as err:
        raise InputError(str(err)) from err
    _rewind(sink)
    sink.write("".join(line + "\n" for line in lines))


@cache  # one parser per process: built by the first main() call, shared by later ones
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="menergy",
        description="Graph energy, spectral-moment bounds, and equality classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, summary in (
        ("analyze", "per-graph moments, energy, bounds, classification"),
        ("sweep", "bound table over even degrees"),
    ):
        cmd = sub.add_parser(name, help=summary)
        source = cmd.add_mutually_exclusive_group(required=True)
        source.add_argument("--in", dest="infile", metavar="FILE", help="input file")
        source.add_argument("--gen", metavar="SPEC", help="generate a family instead of reading")
        cmd.add_argument("--in-format", choices=("graph6", "edgelist"), default="graph6")
        if name == "sweep":
            cmd.add_argument("--max-degree", type=int, required=True, metavar="K")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        cmd.add_argument("--out", metavar="FILE", help="write here instead of stdout")
        cmd.add_argument(
            "--fail-on-violation",
            action="store_true",
            help="exit 2 if an upper bound undercuts or a lower bound exceeds the exact energy",
        )

    generate = sub.add_parser("generate", help="emit graph6 lines for family specs")
    generate.add_argument("spec", nargs="+", metavar="SPEC")
    generate.add_argument("--out", metavar="FILE")
    return parser


def _open_out(path: str) -> tuple[TextIO, bool]:
    """--out for writing, and True if this call created it: a new path is made exclusively."""
    try:
        try:
            return open(path, "x", encoding="utf-8", newline=""), True
        except FileExistsError:  # appending leaves an existing file whole until the output is ready
            return open(path, "a", encoding="utf-8", newline=""), False
    except OSError as err:
        raise InputError(f"cannot write {path}: {err.strerror or err}") from err


def main(argv: list[str] | None = None) -> int:
    """Run one command; the one place that prints a failure and picks the exit code."""
    args = build_parser().parse_args(argv)
    code, created, violations = 1, False, 0
    try:
        if args.command == "sweep":
            try:
                check_sweep_degree(args.max_degree)
            except ValueError as err:  # bad input here; elsewhere a ValueError is a fault
                raise InputError(str(err)) from err
        # Read --in before --out is opened, which could create that very path.
        reads = args.command != "generate" and args.gen is None
        text = _read_input(args.infile) if reads else None
        # Open --out before any work, so an unwritable path costs no computation.
        sink, created = _open_out(args.out) if args.out else (None, False)
        with sink or nullcontext(sys.stdout) as handle:
            if args.command == "generate":
                cmd_generate(args, handle)
            elif args.command == "analyze":
                violations = _run_batch(args, text, handle, _analyze_rows, ANALYZE_COLUMNS)
            else:
                rows = partial(_sweep_rows, args.max_degree)
                violations = _run_batch(args, text, handle, rows, SWEEP_COLUMNS)
            handle.flush()
        code = 2 if violations and args.fail_on_violation else 0
    except InputError as err:
        print(err, file=sys.stderr)
    except BrokenPipeError:  # the reader has gone: Python's documented SIGPIPE recipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    finally:
        if created and code == 1:  # exit 1 writes nothing, so leave no file behind
            os.remove(args.out)
    if code == 2:
        noun = "soundness" if args.command == "analyze" else "bound"
        print(f"{violations} {noun} violation(s)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
