"""The benchmark tracer swaps package functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

from menergy import generate_from_string
from menergy.polyopt import lp_problem, solve_bound_lp

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_tracer_hook_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
