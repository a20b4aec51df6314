"""Benchmark of the menergy command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's corpus from the seed, then calls menergy.cli.main in
this process, one call per corpus file, in passes over the corpus for
S seconds (at least one whole pass).  Every output is checked against the oracles
in oracle.py.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A traced run alternates
untraced and traced passes, so the tracing overhead comes from one run.
Run records and spans go to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# One process and no extra threads: cap BLAS before numpy loads, and use the
# package's default tolerances.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("ME_TOLERANCE_SCALE", None)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

if not (SRC / "menergy" / "cli.py").is_file():
    sys.exit(f"bench: menergy sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import menergy.cli  # noqa: E402
import corpus  # noqa: E402
import oracle  # noqa: E402
from tracer import Tracer  # noqa: E402

# Fresh-interpreter starts before and after the passes; one more follows
# every pass, so the set-up median spans the whole run.
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    """A corpus builder and the CLI command run on each of its files; a
    max_degree makes the command a sweep."""

    name: str
    build: Callable[[int], list[corpus.CorpusFile]]
    max_degree: int | None = None

    def argv(self, infile: Path, fmt: str, outfile: Path) -> list[str]:
        argv = ["analyze" if self.max_degree is None else "sweep"]
        argv += ["--in", str(infile), "--in-format", fmt, "--out", str(outfile)]
        if self.max_degree is not None:
            argv += ["--max-degree", str(self.max_degree)]
        return argv

    def items(self, f: corpus.CorpusFile) -> int:
        """Graphs for analyze; certified bounds (two per degree) for sweep."""
        if self.max_degree is None:
            return len(f.cases)
        return 2 * len(f.cases) * (self.max_degree // 2)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("analyze-small", corpus.analyze_small),
        Workload("analyze-large", corpus.analyze_large),
        Workload("sweep-lp", corpus.sweep_lp, corpus.SWEEP_MAX_DEGREE),
    )
}

END_TO_END = (
    ("throughput", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("bound_gap", "share"),
)

TIMED_LAYERS = (
    "spectral.eigenvalues",
    "spectral.trace_moments",
    "moments.moment_summary",
    "graph6.parse_graph6",
    "graphs.parse_edge_list",
    "extremal.classify_equality",
    "report.analyze_graph",
    "cli.emit",
    "polyopt.solve_bound_lp",
    "polyopt.simplex_standard_form",
    "quartic.verify_majorization",
)
COUNTED_LAYERS = (
    "spectral.eigenvalues",
    "spectral.trace_moments",
    "polyopt.solve_bound_lp",
    "polyopt.simplex_standard_form",
    "quartic.verify_majorization",
)
PER_LAYER = (
    tuple((f"{layer}.calls", "count") for layer in COUNTED_LAYERS)
    + tuple((f"{layer}.self_s", "s") for layer in TIMED_LAYERS)
    + (
        ("spectral.residual_max", "1"),
        ("spectral.trace_moments.calls_per_graph", "count/graph"),
        ("report.analyze_graph.item_ms_p50", "ms"),
        ("report.analyze_graph.item_ms_tail", "ms"),
        ("polyopt.rounds_total", "count"),
        ("polyopt.certified_ratio", "share"),
        ("layers.coverage", "share"),
        ("tracing.overhead", "share"),
    )
)


@dataclass
class Pass:
    """One pass over the corpus: call seconds, item verdicts, output digests."""

    traced: bool
    call_cpu: list[float] = field(default_factory=list)  # per corpus file
    call_wall: list[float] = field(default_factory=list)
    call_ok: list[int] = field(default_factory=list)  # items that passed, per file
    ok: list[bool] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def throughput(passes: list[Pass]) -> float:
    """Items that passed the oracles per processor-second, over all the calls.

    Each corpus file counts with its mean over the calls made of it, so the
    partial last pass of an untraced run adds time without tilting the mix
    of files.  A mean over the whole run, not a median of passes: the
    machine's speed drifts in spells of several seconds, and a median jumps
    between the speeds of those spells where the mean averages over them.
    The first pass always holds every file.
    """
    items = seconds = 0.0
    for k in range(len(passes[0].call_cpu)):
        made = [p for p in passes if len(p.call_cpu) > k]
        items += statistics.fmean(p.call_ok[k] for p in made)
        seconds += statistics.fmean(p.call_cpu[k] for p in made)
    return items / seconds


def call_cli(argv: list[str]) -> tuple[int | None, float, float]:
    """Run menergy.cli.main in-process; returns (exit code or None, processor
    seconds, wall seconds)."""
    start, start_cpu = time.perf_counter(), time.process_time()
    try:
        code = menergy.cli.main(argv)
    except SystemExit as err:
        code = err.code if isinstance(err.code, int) else 1
    except Exception:  # the run goes on; the failure counts against every item
        traceback.print_exc()
        code = None
    return code, time.process_time() - start_cpu, time.perf_counter() - start


def run_pass(
    workload: Workload,
    files: list[corpus.CorpusFile],
    expected: list[list[oracle.Expected]],
    work: Path,
    traced: bool,
    fits: Callable[[int], bool] = lambda k: True,
) -> Pass:
    """Call the CLI on each corpus file in turn, stopping before the first
    file k for which fits(k) is false."""
    result = Pass(traced)
    for k, (f, exp) in enumerate(zip(files, expected)):
        if not fits(k):
            break
        out_path = work / (f.name + ".csv")
        out_path.unlink(missing_ok=True)
        code, cpu_s, wall_s = call_cli(workload.argv(work / f.name, f.fmt, out_path))
        result.call_cpu.append(cpu_s)
        result.call_wall.append(wall_s)
        if code != 0:
            result.call_ok.append(0)
            result.ok += [False] * workload.items(f)
            result.problems.append(f"{f.name}: exit code {code}")
            result.digests.append("")
            continue
        data = out_path.read_bytes()
        result.digests.append(hashlib.sha256(data).hexdigest())
        text = data.decode("ascii")
        if workload.max_degree is None:
            outcome = oracle.check_analyze(text, f.cases, exp)
        else:
            outcome = oracle.check_sweep(text, f.cases, exp, workload.max_degree)
        result.call_ok.append(sum(outcome.ok))
        result.ok += outcome.ok
        result.gaps += outcome.gaps
        result.problems += [f"{f.name}: {p}" for p in outcome.problems]
    return result


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Processor and wall seconds of fresh interpreters that import
    menergy.cli and exit, one sample per start."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import menergy.cli"]
    cpu, wall = [], []
    for _ in range(repeats):
        start, start_cpu = time.perf_counter(), children_cpu()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, stdin=subprocess.DEVNULL)
        cpu.append(children_cpu() - start_cpu)
        wall.append(time.perf_counter() - start)
    return cpu, wall


def tail(values: list[float]) -> float:
    """The highest order statistic with at least ten samples above it (max if none)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def layer_metrics(
    tracer: Tracer, traced: list[Pass], untraced: list[Pass], graphs_per_pass: int
) -> dict[str, float]:
    """Per-layer figures of the traced passes, per pass over the corpus."""
    calls, selftime, wall, covered = tracer.summary()
    k = len(traced)
    out: dict[str, float] = {}
    for layer in COUNTED_LAYERS:
        out[f"{layer}.calls"] = calls[layer] / k
    for layer in TIMED_LAYERS:
        out[f"{layer}.self_s"] = selftime[layer] / k
    spectra = tracer.results["spectral.eigenvalues"]
    solutions = tracer.results["polyopt.solve_bound_lp"]
    item_ms = [1e3 * d for d in tracer.durations("report.analyze_graph")]
    untraced_tp = throughput(untraced)
    traced_tp = throughput(traced)
    out.update(
        {
            "spectral.residual_max": max((s.residual for s in spectra), default=0.0),
            "spectral.trace_moments.calls_per_graph": calls["spectral.trace_moments"]
            / (k * graphs_per_pass),
            "report.analyze_graph.item_ms_p50": statistics.median(item_ms),
            "report.analyze_graph.item_ms_tail": tail(item_ms),
            "polyopt.rounds_total": sum(s.rounds for s in solutions) / k,
            "polyopt.certified_ratio": (
                sum(s.certified for s in solutions) / len(solutions) if solutions else 0.0
            ),
            "layers.coverage": covered / wall,
            "tracing.overhead": (traced_tp - untraced_tp) / untraced_tp,
        }
    )
    return out


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def run(
    workload: Workload, seed: int, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS
) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, run context)."""
    measure_setup(1)  # the first start may still be writing bytecode caches
    setup_cpu, setup_wall = measure_setup(setup_repeats)

    def sample_setup(repeats: int) -> None:
        cpu, wall = measure_setup(repeats)
        setup_cpu.extend(cpu)
        setup_wall.extend(wall)

    work = OUT / "work" / workload.name
    files = workload.build(seed)
    corpus_digest = corpus.write(files, work)
    expected = [[oracle.expect(c) for c in f.cases] for f in files]
    graphs_per_pass = sum(len(f.cases) for f in files)

    warm = corpus.CorpusFile("warmup", files[0].fmt, (corpus.Case("path:3", 3, ((0, 1), (1, 2))),))
    corpus.write([warm], work)
    call_cli(["analyze", "--in", str(work / warm.name), "--in-format", warm.fmt,
              "--out", str(work / "warmup.csv")])

    # Without tracing, passes go on call by call while the next call, at the
    # mean pace of its file so far, still ends in time; the pass it would
    # have started is cut there.  With tracing, rounds of an untraced and a
    # traced pass go on while the next round, at the mean pace, ends in time.
    tracer = Tracer()
    passes: list[Pass] = []
    start = time.perf_counter()

    def fits(k: int) -> bool:
        made = [p.call_wall[k] for p in passes if len(p.call_wall) > k]
        return not made or time.perf_counter() - start + statistics.fmean(made) <= seconds

    rounds = 0
    while True:
        if trace:
            passes.append(run_pass(workload, files, expected, work, traced=False))
            with tracer.installed(("spectral.eigenvalues", "polyopt.solve_bound_lp")):
                passes.append(run_pass(workload, files, expected, work, traced=True))
        else:
            done = run_pass(workload, files, expected, work, traced=False, fits=fits)
            if done.call_cpu:
                passes.append(done)
            if len(done.call_cpu) < len(files):
                break
        sample_setup(1)
        rounds += 1
        elapsed = time.perf_counter() - start
        if trace and elapsed * (rounds + 1) / rounds > seconds:
            break
    sample_setup(setup_repeats)

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    problems = [msg for p in passes for msg in p.problems]
    if any(p.digests != passes[0].digests[: len(p.digests)] for p in passes):
        problems.append("output differs between passes" + (" (tracing on/off)" if trace else ""))
    attempted = sum(len(p.ok) for p in passes)
    failed = sum(not ok for p in passes for ok in p.ok)

    if trace:
        metrics = layer_metrics(tracer, traced, untraced, graphs_per_pass)
        units = dict(PER_LAYER)
        tracer.write(OUT / f"{workload.name}-seed{seed}-spans.jsonl")
    else:
        metrics = {
            "throughput": throughput(untraced),
            "setup_s": statistics.median(setup_cpu),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # Bound values are deterministic; a run whose calls all failed
            # has no gaps, and its result is incorrect anyway.
            "bound_gap": statistics.fmean(passes[0].gaps) if passes[0].gaps else 0.0,
        }
        units = dict(END_TO_END)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    context = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": min(int(os.environ[BLAS_THREAD_VARS[0]]), len(os.sched_getaffinity(0))),
        "repo.src_lines": src_lines(),
        "corpus_sha256": corpus_digest,
        "output_sha256": dict(zip((f.name for f in files), passes[0].digests)),
        "graphs_per_pass": graphs_per_pass,
        "passes_untraced": len(untraced),
        "passes_traced": len(traced),
        "item_ms_samples": len(tracer.durations("report.analyze_graph")),
        "error_rate": failed / attempted,
        "pass_throughputs": [sum(p.call_ok) / sum(p.call_cpu) for p in untraced],
        "throughput_wall": sum(sum(p.ok) for p in untraced) / sum(sum(p.call_wall) for p in untraced),
        "setup_samples": len(setup_cpu),
        "setup_wall_s": statistics.median(setup_wall),
        "problems": problems[:20],
    }
    return result, context


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, context = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"context": context, "result": result}, indent=2) + "\n")
    for problem in context["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    for key, metric in result["metrics"].items():
        print(f"{args.workload} {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
