"""The benchmark tracer swaps package functions by name: every name must exist, and a
traced sweep must record the spans that bench/run.py reads."""

import importlib
import importlib.util
from pathlib import Path

import menergy.cli
from menergy import generate_from_string
from menergy.polyopt import lp_problem, solve_bound_lp

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_hook_resolves():
    tracer = load_tracer()
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracer.HOOKS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_bound_solutions_keep_the_fields_the_benchmark_reads():
    # bench/run.py sums LpSolution.rounds into polyopt.rounds_total and averages
    # LpSolution.certified into polyopt.certified_ratio.
    sol = solve_bound_lp(lp_problem(generate_from_string("petersen"), 8, "above"))
    assert isinstance(sol.rounds, int) and sol.rounds >= 1
    assert sol.certified is True


def test_a_traced_sweep_records_the_spans_the_benchmark_reads(tmp_path):
    # bench/run.py --trace 1 takes the median of the analyze_graph span durations,
    # which fails on a run without them, and counts the bound solves.
    tracer = load_tracer().Tracer()
    with tracer.installed():
        argv = ["sweep", "--gen", "petersen", "--max-degree", "8", "--out", str(tmp_path / "sweep.csv")]
        assert menergy.cli.main(argv) == 0
    calls, _, _, _ = tracer.summary()
    assert calls["cli.main"] == 1
    assert calls["report.analyze_graph"] >= 1 and tracer.durations("report.analyze_graph")
    assert calls["polyopt.solve_bound_lp"] == 8


def test_a_traced_analysis_searches_and_classifies_once(tmp_path):
    # The connectivity analyze_graph computes is passed on to classify_equality, so one
    # graph opens one span of each under the hooks bench/run.py installs.
    tracer = load_tracer().Tracer()
    with tracer.installed():
        argv = ["analyze", "--gen", "petersen", "--out", str(tmp_path / "analyze.csv")]
        assert menergy.cli.main(argv) == 0
    calls, _, _, _ = tracer.summary()
    assert calls["graphs.is_connected"] == 1
    assert calls["extremal.classify_equality"] == 1
