"""End-to-end acceptance battery.

Each test is one acceptance criterion; `pytest -v` therefore prints one
pass/fail line per criterion.  Tolerances are stated inline and are not
loosened anywhere else in the suite.
"""

import dataclasses
import math
import time

import pytest

import menergy as me
from menergy.cli import main as cli_main
from menergy.polyopt import lp_problem, solve_bound_lp

from conftest import (
    CORPUS_SPECS,
    brute_force_quad_count,
    corpus_graph,
    spectrum_of,
    summary_of,
)

HEAWOOD_ENERGY = 6 + 12 * math.sqrt(2)


def _report(tag: str) -> None:
    print(f"acceptance: {tag} PASS")


def test_criterion_1_design_incidence_equality():
    start = time.perf_counter()
    g = corpus_graph("heawood")
    report = me.analyze_graph(g)
    elapsed = time.perf_counter() - start
    assert report.energy == pytest.approx(HEAWOOD_ENERGY, rel=1e-7)
    assert report.quartic_bound == pytest.approx(HEAWOOD_ENERGY, rel=1e-7)
    assert report.van_dam_bound == pytest.approx(HEAWOOD_ENERGY, rel=1e-7)
    assert str(report.classification) == "DesignIncidence(7,3,1)"
    assert elapsed < 1.0
    _report("heawood equality at 6+12*sqrt(2), classified as its design")


def test_criterion_2_complete_graph_equality():
    for n in range(2, 13):
        g = me.complete(n)
        report = me.analyze_graph(g)
        assert report.quartic_bound == pytest.approx(2.0 * (n - 1), rel=1e-7), n
        assert str(report.classification) == "Complete", n
    _report("complete graphs hit 2(n-1) and classify as Complete for n in 2..12")


def test_criterion_3_srg_equal_params_equality():
    g = corpus_graph("rook:4")
    report = me.analyze_graph(g)
    assert report.energy == pytest.approx(36.0, rel=1e-7)
    assert report.quartic_bound == pytest.approx(36.0, rel=1e-7)
    assert report.tangency == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert not report.tangency_clamped
    assert str(report.classification) == "SrgEqualParams(16,6,2,2)"
    _report("rook(4) equality at 36 with tangency 1/3, classified as its SRG")


def test_criterion_4_strict_inequality_sanity():
    g = corpus_graph("petersen")
    report = me.analyze_graph(g)
    assert report.energy == pytest.approx(16.0, rel=1e-7)
    assert report.quartic_bound == report.van_dam_bound == pytest.approx(
        10 * (3 + 6 * math.sqrt(2)) / 7, rel=1e-12
    )
    assert report.quartic_bound - report.energy >= 0.3
    assert str(report.classification) == "NotTight"
    _report("petersen bound strictly exceeds energy by at least 0.3")


def test_criterion_5_random_graph_property_suite(gnp_batch):
    start = time.perf_counter()
    assert len(gnp_batch) == 200
    sampled_r = [k / 100.0 for k in range(1, 100)]
    for g in gnp_batch:
        s = me.moment_summary(g)
        assert s.m2 == me.trace_moments(g, 2)[2]
        assert s.m4 == me.trace_moments(g, 4)[4]
        if g.n <= 12:
            assert s.quad_count == brute_force_quad_count(g)
        if s.m == 0:
            continue
        sm = me.scaled_moments(s)
        assert sm.m4_scaled <= sm.m2_scaled + 1e-12 * max(1.0, sm.m0_scaled)
        assert sm.m2_scaled <= sm.m0_scaled + 1e-12 * max(1.0, sm.m0_scaled)
        energy = sum(abs(v) for v in spectrum_of(g).eigenvalues)
        bound = me.best_quartic_bound(s)
        assert bound >= energy - 1e-7 * max(1.0, energy)
        r_star, _ = me.optimal_tangency(s)
        at_star = me.bound_at_tangency(s, r_star)
        for r in sampled_r:
            assert at_star <= me.bound_at_tangency(s, r) + 1e-9 * max(1.0, at_star)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(f"200 seeded G(n,p) graphs pass the oracle suite in {elapsed:.1f}s")


def test_criterion_6_bound_decreases_in_first_moment_coordinate(gnp_batch):
    summaries = []
    for spec in CORPUS_SPECS:
        s = summary_of(corpus_graph(spec))
        if s.m > 0:
            summaries.append(s)
    for g in gnp_batch:
        if len(summaries) >= 50:
            break
        s = me.moment_summary(g)
        if s.m > 0:
            summaries.append(s)
    assert len(summaries) >= 50
    for s in summaries[:50]:
        # Integer steps of M4 = D^3 * m4_scaled at 0.4, 0.6, 0.8 and 1.0 of its value.
        grid = [s.m4 * k // 5 for k in (2, 3, 4, 5)]
        values = [me.best_quartic_bound(dataclasses.replace(s, m4=m4)) for m4 in grid]
        for prev, cur in zip(values, values[1:]):
            assert cur <= prev + 1e-9 * max(1.0, abs(prev))
    _report("quartic bound is non-increasing in the fourth moment on 50 summaries")


def test_criterion_7_lp_consistency():
    checked = 0
    for spec in CORPUS_SPECS:
        g = corpus_graph(spec)
        s = summary_of(g)
        if s.m == 0:
            continue
        r_star, clamped = me.optimal_tangency(s)
        if clamped:
            continue
        closed = me.best_quartic_bound(s)
        sol = solve_bound_lp(lp_problem(g, 4, "above"))
        assert sol.certified, spec
        assert abs(sol.objective - closed) <= 1e-4 * closed, spec
        checked += 1
    assert checked >= 20

    for spec in ("petersen", "heawood", "complete:5", "gnp:10:0.2:1"):
        g = corpus_graph(spec)
        energy = sum(abs(v) for v in spectrum_of(g).eigenvalues)
        entries = me.bound_sweep(g, 8)
        assert [e.degree for e in entries] == [2, 4, 6, 8]
        for e in entries:
            assert e.upper.certified and e.lower.certified, spec
            assert e.lower.objective - 1e-6 <= energy <= e.upper.objective + 1e-6, spec
        for prev, cur in zip(entries, entries[1:]):
            assert cur.upper.objective <= prev.upper.objective + 1e-12, spec
            assert cur.lower.objective >= prev.lower.objective - 1e-12, spec
    _report("degree-4 LP tracks the closed form; sweeps are monotone and bracket energy")


def test_criterion_8_format_fidelity(tmp_path):
    for spec in CORPUS_SPECS:
        g = corpus_graph(spec)
        back = me.parse_graph6(me.write_graph6(g))
        assert back.n == g.n
        assert list(back.edges()) == list(g.edges()), spec
    assert me.write_graph6(me.generate_from_string("complete:2")) == "A_"

    corpus_file = tmp_path / "corpus.g6"
    lines = [me.write_graph6(corpus_graph(spec)) for spec in CORPUS_SPECS]
    corpus_file.write_text("".join(line + "\n" for line in lines))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli_main(["analyze", "--in", str(corpus_file), "--out", str(out_a)]) == 0
    assert cli_main(["analyze", "--in", str(corpus_file), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    _report("graph6 round-trips, K2 encodes as A_, repeated CSV runs are byte-identical")
