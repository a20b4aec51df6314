"""Spans around the calls into each menergy layer, recorded from outside the package.

Each hook replaces one function at the module where its caller looks it up,
so a call made through that name opens a span.  Spans live in memory as
[name, start, end, parent, item] and are written out when the run ends.
A new item (one input graph) starts at each parser call.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name, starts a new item)
HOOKS = (
    ("menergy.cli", "main", "cli.main", False),
    ("menergy.cli", "parse_graph6", "graph6.parse_graph6", True),
    ("menergy.cli", "parse_edge_list", "graphs.parse_edge_list", True),
    ("menergy.cli", "analyze_graph", "report.analyze_graph", False),
    ("menergy.cli", "soundness_ok", "report.soundness_ok", False),
    ("menergy.cli", "bound_sweep", "polyopt.bound_sweep", False),
    ("menergy.cli", "_report_row", "cli.report_row", False),
    ("menergy.cli", "_emit", "cli.emit", False),
    ("menergy.report", "moment_summary", "moments.moment_summary", False),
    ("menergy.report", "is_connected", "graphs.is_connected", False),
    ("menergy.report", "eigenvalues", "spectral.eigenvalues", False),
    ("menergy.report", "scaled_moments", "moments.scaled_moments", False),
    ("menergy.report", "optimal_tangency", "quartic.optimal_tangency", False),
    ("menergy.report", "best_quartic_bound", "quartic.best_quartic_bound", False),
    ("menergy.report", "is_regular", "graphs.is_regular", False),
    ("menergy.report", "van_dam_bound", "quartic.van_dam_bound", False),
    ("menergy.report", "classify_equality", "extremal.classify_equality", False),
    ("menergy.moments", "trace_moments", "spectral.trace_moments", False),
    ("menergy.spectral", "adjacency_matrix", "graphs.adjacency_matrix", False),
    ("menergy.polyopt", "lp_problem", "polyopt.lp_problem", False),
    ("menergy.polyopt", "solve_bound_lp", "polyopt.solve_bound_lp", False),
    ("menergy.polyopt", "simplex_standard_form", "polyopt.simplex_standard_form", False),
    ("menergy.polyopt", "degree_stats", "moments.degree_stats", False),
    ("menergy.polyopt", "trace_moments", "spectral.trace_moments", False),
    ("menergy.polyopt", "verify_majorization", "quartic.verify_majorization", False),
    ("menergy.polyopt", "violation_minima", "quartic.violation_minima", False),
)

ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.items = 0
        self.results: dict[str, list] = defaultdict(list)
        self.origin = time.perf_counter()

    def wrap(self, name: str, fn, new_item: bool, keep_result: bool):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        results = self.results[name]

        def traced(*args, **kwargs):
            if new_item:
                self.items += 1
            span = [name, clock(), 0.0, stack[-1] if stack else None, self.items]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep_result:
                results.append(result)
            return result

        return traced

    @contextmanager
    def installed(self, keep_results: tuple[str, ...] = ()):
        """Swap every hook in for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, new_item in HOOKS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, new_item, name in keep_results))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self) -> tuple[dict[str, int], dict[str, float], float, float]:
        """Calls and self seconds per span name, root wall seconds, and root seconds
        covered by the root's direct children."""
        calls: dict[str, int] = defaultdict(int)
        selftime: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        wall = covered = 0.0
        for k, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            selftime[name] += (end - start) - child[k]
            if name == ROOT_SPAN:
                wall += end - start
                covered += child[k]
        return calls, selftime, wall, covered

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as handle:
            for name, start, end, parent, item in self.spans:
                record = {
                    "name": name,
                    "start": start - self.origin,
                    "end": end - self.origin,
                    "parent": parent,
                    "item": item,
                }
                handle.write(json.dumps(record) + "\n")
