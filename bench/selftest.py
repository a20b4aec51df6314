"""Fast self-test of the benchmark harness.

    python3 bench/selftest.py

Runs a tiny analyze corpus and a tiny sweep through the harness with tracing
off and on, checks the result objects against BENCHMARK.json, and checks
that corrupted output rows trip the oracles.  Exits 1 on the first failure.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import sys

import run  # sets up the import path of the checkout's sources
import corpus
import oracle


def tiny_analyze(seed: int) -> list[corpus.CorpusFile]:
    rng = random.Random(seed)
    cases = [
        corpus.relabelled("rook:4", rng, "SrgEqualParams"),
        corpus.relabelled("heawood", rng, "DesignIncidence"),
        corpus.relabelled("complete:4", rng, "Complete"),
        corpus.relabelled("path:5", rng),
        corpus.gnp(9, 0.4, rng),
        corpus.Case("edgeless:3", 3, ()),
    ]
    return [corpus.CorpusFile("tiny.g6", "graph6", tuple(cases))]


def tiny_sweep(seed: int) -> list[corpus.CorpusFile]:
    rng = random.Random(seed)
    return [corpus.CorpusFile("tiny-sweep.g6", "graph6", (corpus.relabelled("cycle:6", rng),))]


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest: FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def check_schema(result: dict, metrics: list[dict]) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0, f"run not clean: {result}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted")
    expected = {m["name"]: m["unit"] for m in metrics}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == expected, f"metrics {got} differ from BENCHMARK.json {expected}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value), f"{name} = {value!r}")


def corrupt(text: str, row: int, column: str, value: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    rows[row + 1][rows[0].index(column)] = value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def check_corruption(workload: run.Workload, make_bad) -> None:
    """A clean output passes the oracle; each corrupted copy fails exactly its item."""
    (f,) = workload.build(0)
    work = run.OUT / "work" / "selftest"
    corpus.write([f], work)
    out = work / (f.name + ".csv")
    code, _, _ = run.call_cli(workload.argv(work / f.name, f.fmt, out))
    check(code == 0, f"{workload.name}: exit code {code}")
    text = out.read_text()
    exp = [oracle.expect(c) for c in f.cases]

    def verdict(t: str) -> oracle.Outcome:
        if workload.max_degree is None:
            return oracle.check_analyze(t, f.cases, exp)
        return oracle.check_sweep(t, f.cases, exp, workload.max_degree)

    check(all(verdict(text).ok), f"{workload.name}: clean output flagged")
    for bad_text, item, what in make_bad(text):
        outcome = verdict(bad_text)
        check(not outcome.ok[item], f"{workload.name}: {what} not caught")
        check(sum(not ok for ok in outcome.ok) == 1, f"{workload.name}: {what} hit other items")


def analyze_corruptions(text: str):
    rows = list(csv.DictReader(io.StringIO(text)))
    energy = float(rows[3]["energy"])
    yield corrupt(text, 0, "m4", str(int(rows[0]["m4"]) + 8)), 0, "wrong m4"
    yield corrupt(text, 1, "classification", "NotTight"), 1, "wrong class"
    yield corrupt(text, 3, "energy", repr(energy * (1 + 1e-6))), 3, "energy off by 1e-6"
    yield corrupt(text, 3, "quartic_bound", repr(energy * (1 - 1e-6))), 3, "unsound quartic bound"
    yield corrupt(text, 4, "quad_count", "0" if rows[4]["quad_count"] != "0" else "1"), 4, "quad_count"


def sweep_corruptions(text: str):
    rows = list(csv.DictReader(io.StringIO(text)))
    yield corrupt(text, 1, "upper_certified", "false"), 2, "uncertified upper bound"
    yield corrupt(text, 1, "lp_upper", repr(float(rows[0]["lp_upper"]) + 1.0)), 2, "rising upper bound"
    yield corrupt(text, 1, "lp_lower", repr(float(rows[1]["energy"]) * 1.01)), 3, "lower above energy"


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    analyze = run.Workload("selftest-analyze", tiny_analyze)
    sweep = run.Workload("selftest-sweep", tiny_sweep, max_degree=4)
    for workload in (analyze, sweep):
        for trace in (False, True):
            result, context = run.run(workload, seed=3, seconds=0.0, trace=trace, setup_repeats=1)
            check_schema(result, spec["per_layer" if trace else "end_to_end"])
            if trace:
                check(context["passes_traced"] == context["passes_untraced"] == 1, "pass pairing")
    check_corruption(analyze, analyze_corruptions)
    check_corruption(sweep, sweep_corruptions)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
