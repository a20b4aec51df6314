"""The benchmark tracer swaps package functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

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
