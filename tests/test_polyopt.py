"""Bounds layer: problem assembly, principal-representation solves, sweeps, the kept simplex."""

import dataclasses
import math
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import menergy as me
from menergy import polyopt
from menergy.polyopt import (
    NODE_FLOOR,
    LpProblem,
    _gauss_nodes,
    _principal_nodes,
    lp_problem,
    simplex_standard_form,
    solve_bound_lp,
)
from menergy.quartic import verify_majorization
from menergy.report import SOUNDNESS_RTOL

from conftest import (
    CORPUS_SPECS,
    EXACT_ENERGIES,
    FFJ_ENERGY,
    corpus_graph,
    reference_gauss_nodes,
    spectrum_of,
    summary_of,
)
from test_exhaustive import representatives


# ---------------------------------------------------------------------------
# simplex core (the bounds no longer use it; a benchmark tracer hooks its name)


def test_simplex_textbook_lp():
    # max x + y s.t. x + 2y <= 8, 3x + y <= 9 as a standard-form min.
    a = [[1.0, 2.0, 1.0, 0.0], [3.0, 1.0, 0.0, 1.0]]
    b = [8.0, 9.0]
    c = [-1.0, -1.0, 0.0, 0.0]
    x, obj, duals, status = simplex_standard_form(a, b, c)
    assert status == "optimal"
    assert x == pytest.approx([2.0, 3.0, 0.0, 0.0], abs=1e-9)
    assert obj == pytest.approx(-5.0, abs=1e-9)
    assert duals == pytest.approx([-0.4, -0.2], abs=1e-9)


def test_simplex_infeasible():
    a = [[1.0, 1.0], [1.0, 1.0]]
    x, obj, duals, status = simplex_standard_form(a, [1.0, 2.0], [1.0, 0.0])
    assert status == "infeasible"
    assert x is None and obj is None and duals is None


def test_simplex_unbounded():
    # x - y = 1, minimise -x: x = 1 + y runs off with y.
    x, obj, duals, status = simplex_standard_form([[1.0, -1.0]], [1.0], [-1.0, 0.0])
    assert status == "unbounded"
    assert x is None


def test_simplex_negative_rhs_flips_duals():
    # -x - y = -3 is x + y = 3 after the internal sign flip; the reported
    # dual must refer to the original row.
    x, obj, duals, status = simplex_standard_form([[-1.0, -1.0]], [-3.0], [1.0, 2.0])
    assert status == "optimal"
    assert x == pytest.approx([3.0, 0.0], abs=1e-9)
    assert obj == pytest.approx(3.0, abs=1e-9)
    assert duals == pytest.approx([-1.0], abs=1e-9)


def test_simplex_redundant_row():
    # Second row is twice the first; its artificial stays basic at level zero.
    a = [[1.0, 1.0], [2.0, 2.0], [1.0, 0.0]]
    b = [2.0, 4.0, 1.0]
    x, obj, duals, status = simplex_standard_form(a, b, [1.0, 1.0])
    assert status == "optimal"
    assert x == pytest.approx([1.0, 1.0], abs=1e-9)
    assert obj == pytest.approx(2.0, abs=1e-9)


def test_simplex_degenerate_vertex_terminates():
    # (1, 0) is over-determined: three tight constraints in two variables.
    a = [[1.0, 1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0, 1.0]]
    b = [1.0, 1.0, 1.0]
    c = [-1.0, -1.0, 0.0, 0.0, 0.0]
    x, obj, duals, status = simplex_standard_form(a, b, c)
    assert status == "optimal"
    assert obj == pytest.approx(-1.0, abs=1e-9)


def test_simplex_beale_cycling_lp():
    # Beale's example, slacks x1..x3 then x4..x7.  Started from the slack
    # basis, most-negative-cost pricing with smallest-index leaving returns
    # to that basis after six degenerate pivots and cycles for ever.
    a = [
        [1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
        [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
    ]
    b = [0.0, 0.0, 1.0]
    c = [0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0]
    x, obj, duals, status = simplex_standard_form(a, b, c)
    ref = linprog(c, A_eq=a, b_eq=b, bounds=[(0, None)] * 7, method="highs")
    assert status == "optimal" and ref.status == 0
    assert obj == pytest.approx(-1.25, abs=1e-12)
    assert obj == pytest.approx(ref.fun, abs=1e-9)
    assert np.allclose(np.array(a) @ x, b, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_simplex_matches_reference_solver(data):
    # Sparse feasible points leave many right-hand sides at zero, so most
    # vertices are degenerate; half the examples price by Bland's rule from
    # the first pivot, the rest by Dantzig's rule with the fallback.
    m = data.draw(st.integers(1, 8))
    n = data.draw(st.integers(1, 16))
    ints = st.integers(-3, 3)
    a = np.array(data.draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=m, max_size=m)), float)
    levels = st.sampled_from([0, 0, 0, 0, 1, 2, 3])
    x0 = np.array(data.draw(st.lists(levels, min_size=n, max_size=n)), float)
    b = a @ x0  # feasible by construction
    c = np.array(data.draw(st.lists(ints, min_size=n, max_size=n)), float)
    bland_after = 0 if data.draw(st.booleans()) else polyopt._BLAND_AFTER
    with mock.patch.object(polyopt, "_BLAND_AFTER", bland_after):
        x, obj, duals, status = simplex_standard_form(a, b, c)
    ref = linprog(c, A_eq=a, b_eq=b, bounds=[(0, None)] * n, method="highs")
    if status == "optimal":
        assert ref.status == 0  # not 4 either: an optimal verdict needs HiGHS to agree
        assert obj == pytest.approx(ref.fun, abs=1e-7)
        assert np.all(x >= -1e-9)
        assert np.allclose(a @ x, b, atol=1e-7)
        # Dual feasibility of the equality multipliers: reduced costs >= 0.
        assert np.all(c - a.T @ duals >= -1e-7)
    else:
        assert status == "unbounded"
        assert ref.status == 3 or has_improving_ray(a, c)


def has_improving_ray(a, c) -> bool:
    """A ray d >= 0 with a d = 0 and c d < 0, which makes a feasible LP unbounded."""
    ray = linprog(c, A_eq=a, b_eq=np.zeros(len(a)), bounds=[(0, 1)] * len(c), method="highs")
    return ray.status == 0 and ray.fun < -1e-9


def test_simplex_unbounded_where_reference_reports_unknown():
    # HiGHS (scipy 1.17) answers status 4, "Unknown", on this feasible and
    # unbounded LP with each of its methods; the improving ray settles it.
    a = np.array(
        [
            [1, 3, 0, 2, -1, -1, 2, -3, 0, 3, 2],
            [1, -2, 3, -3, -2, -1, -1, -1, -3, 2, 2],
            [-3, -2, -1, -3, 3, 0, -2, -2, 0, -2, 1],
            [1, -3, 3, -3, -2, -2, -3, 0, 3, -2, 1],
            [2, -2, -2, 1, 2, 1, 0, -1, 3, -3, -1],
        ],
        float,
    )
    b = a @ np.array([0, 0, 3, 2, 0, 0, 0, 1, 3, 0, 0], float)
    c = np.array([-2, 2, 3, -1, 1, -3, 0, 3, -1, -1, -1], float)
    x, obj, duals, status = simplex_standard_form(a, b, c)
    assert status == "unbounded"
    assert has_improving_ray(a, c)


# ---------------------------------------------------------------------------
# problem assembly and validation


def test_problem_validation_rejections():
    ok = dict(degree=2, moments=(10, 30), scale=3.0, direction="above")

    def bad(**kw):
        args = {**ok, **kw}
        with pytest.raises(ValueError):
            LpProblem(**args)

    bad(degree=3)
    bad(degree=-2)
    bad(degree=18)
    bad(moments=(10, 30, 90))
    bad(moments=(10, -1))
    bad(scale=0.0)
    bad(direction="sideways")


def test_lp_problem_builder():
    g = corpus_graph("petersen")
    p = lp_problem(g, 4, "above")
    assert p.degree == 4
    assert p.scale == 3.0
    assert p.moments == (10, 30, 150)
    assert p.direction == "above"


def test_lp_problem_rejects_edgeless_and_bad_sizes():
    with pytest.raises(me.NoEdgesError):
        lp_problem(corpus_graph("path:1"), 2, "above")
    with pytest.raises(ValueError, match="degree"):
        lp_problem(corpus_graph("petersen"), 3, "above")


# ---------------------------------------------------------------------------
# solve_bound_lp against analytic optima


@pytest.mark.parametrize("spec", ["petersen", "heawood", "star:4", "gnp:15:0.5:2"])
def test_degree_zero_constant_bound(spec):
    # The best constant majoriser of |x| on [0, D] is D itself.
    g = corpus_graph(spec)
    sol = solve_bound_lp(lp_problem(g, 0, "above"))
    assert sol.certified and sol.status == "optimal"
    assert sol.objective == pytest.approx(g.n * me.degree_stats(g).max_degree, rel=1e-9)


@pytest.mark.parametrize("spec", ["petersen", "heawood", "star:4", "gnp:15:0.5:2"])
def test_degree_two_closed_forms(spec):
    # Above: the tangent parabola gives sqrt(n * M2); below: x^2 / D gives M2 / D.
    g = corpus_graph(spec)
    n = g.n
    m2 = me.trace_moments(g, 2)[2]
    dmax = me.degree_stats(g).max_degree
    up = solve_bound_lp(lp_problem(g, 2, "above"))
    lo = solve_bound_lp(lp_problem(g, 2, "below"))
    assert up.certified and lo.certified
    assert up.objective == pytest.approx(math.sqrt(n * m2), rel=1e-7)
    assert lo.objective == pytest.approx(m2 / dmax, rel=1e-7)
    assert lo.objective <= m2 / dmax + 1e-9


def test_degree_four_matches_quartic_closed_form():
    for spec in ("petersen", "heawood", "rook:4", "gnp:15:0.5:2"):
        g = corpus_graph(spec)
        closed = me.best_quartic_bound(summary_of(g))
        sol = solve_bound_lp(lp_problem(g, 4, "above"))
        assert sol.certified, spec
        assert sol.objective <= closed + 1e-6, spec
        assert abs(sol.objective - closed) <= 1e-4 * closed, spec


def test_degree_four_heawood_lower_is_certified():
    g = corpus_graph("heawood")
    sol = solve_bound_lp(lp_problem(g, 4, "below"))
    assert sol.certified
    assert sol.objective <= 6 + 12 * math.sqrt(2) + 1e-9
    # The quartic minoriser is not worthless: it clears the parabola value.
    assert sol.objective >= 14.0 - 1e-6


def test_cycle4_degree_four_upper_hits_energy():
    g = corpus_graph("cycle:4")
    sol = solve_bound_lp(lp_problem(g, 4, "above"))
    assert sol.certified
    assert sol.objective == pytest.approx(4.0, abs=1e-4)
    assert sol.objective >= 4.0 - 1e-6


def test_k2_bounds_collapse_to_energy():
    entries = me.bound_sweep(corpus_graph("complete:2"), 4)
    for e in entries:
        assert e.upper.objective == pytest.approx(2.0, abs=1e-6)
        assert e.lower.objective == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("spec", ["petersen", "cycle:7", "bipartite:2:3", "gnp:10:0.2:1"])
def test_soundness_against_eigensolver(spec):
    g = corpus_graph(spec)
    energy = me.energy(g)
    for degree in (2, 4, 6):
        up = solve_bound_lp(lp_problem(g, degree, "above"))
        lo = solve_bound_lp(lp_problem(g, degree, "below"))
        assert up.certified and lo.certified
        assert up.objective >= energy - 1e-6
        assert lo.objective <= energy + 1e-6


def test_solution_polynomial_certifies_independently():
    g = corpus_graph("petersen")
    sol = solve_bound_lp(lp_problem(g, 4, "above"))
    check = verify_majorization(sol.polynomial, "above")
    assert check.ok
    # Objective is the contraction of that very polynomial with the moments.
    moments = (10, 30, 150)
    value = sum(c * m for c, m in zip(sol.polynomial.coefficients, moments))
    assert sol.objective == pytest.approx(value, rel=1e-12)
    assert sol.rounds >= 1


def test_scale_doubling_doubles_objective():
    # q(x) = 2 p(x/2) maps feasible polynomials bijectively between the base
    # problem and the doubled one, so the optimal values scale exactly.
    g = corpus_graph("petersen")
    base = lp_problem(g, 4, "above")
    doubled = LpProblem(
        degree=4,
        moments=(10, 4 * 30, 16 * 150),
        scale=2 * base.scale,
        direction="above",
    )
    a = solve_bound_lp(base)
    b = solve_bound_lp(doubled)
    assert b.objective == pytest.approx(2 * a.objective, rel=1e-6)


def test_gauss_nodes_of_a_full_rank_measure():
    # Atoms at t = 1, 2, 4: moments sum t^j for j = 0..5.
    nodes = _gauss_nodes([3, 7, 21, 73, 273, 1057])
    assert nodes == pytest.approx([1.0, 2.0, 4.0], abs=1e-12)


def test_gauss_nodes_cut_a_singular_hankel_to_its_rank():
    # Two atoms (mass 2 at t = 0 and at t = 1) asked for three nodes: the
    # 3-by-3 Hankel matrix is singular and the rule is the measure itself.
    nodes = _gauss_nodes([4, 2, 2, 2, 2, 2])
    assert nodes == pytest.approx([0.0, 1.0], abs=1e-15)


def test_upper_node_at_zero_moves_to_the_floor():
    # cycle:4 has |lambda| in {0, 2}: the right Radau node of (1 - u) mu sits at 0.
    problem = lp_problem(corpus_graph("cycle:4"), 4, "above")
    nodes, ends = _principal_nodes(problem)
    assert nodes == [NODE_FLOOR] and ends == (1.0,)
    sol = solve_bound_lp(problem)
    assert sol.certified
    assert 4.0 <= sol.objective <= 4.0 * (1 + 1e-5)


def test_degree_four_upper_is_the_closed_form_quartic():
    # The k = 2 right Radau rule touches at sqrt((m2s - m4s) / (m0s - m2s)) and 1, and the
    # paper's closed form, proved in integers, is the same float.  Where c1 = D^2 M2 - M4 = 0
    # the moments sit on the boundary and the closed form M2 / D may lie below the quadrature.
    gnp = [f"gnp:{n}:{p}:{seed}" for n in (8, 12, 16) for p in (0.2, 0.5, 0.8) for seed in range(7)]
    specs = CORPUS_SPECS + gnp
    on_boundary = []
    for spec in specs:
        g = corpus_graph(spec)
        if g.m == 0:
            continue
        s = summary_of(g)
        closed, upper = me.best_quartic_bound(s), me.bound_sweep(g, 4)[1].upper.objective
        if s.gaps[1]:
            assert closed == upper, spec
        else:
            assert closed <= upper, spec
            on_boundary.append(spec)
    assert len(specs) - len(on_boundary) >= 90 and "gnp:8:0.2:6" in on_boundary


# The corpus graphs with edges, plus twelve regression families.
FAMILIES = sorted(
    set(CORPUS_SPECS) - {"complete:1", "path:1"}
    | {"petersen", "heawood", "cycle:7", "bipartite:2:3", "gnp:10:0.2:1", "gnp:15:0.5:2"}
    | {"rook:4", "star:4", "cycle:4", "complete:2", "gnp:24:0.5:4", "gnp:20:0.2:7"}
)


@pytest.mark.parametrize("spec", FAMILIES)
def test_every_bound_to_degree_eight_certifies_without_fallback(spec):
    g = corpus_graph(spec)
    for degree in (2, 4, 6, 8):
        for direction in ("above", "below"):
            sol = solve_bound_lp(lp_problem(g, degree, direction))
            assert sol.certified, (degree, direction)


def _grid_lp_bound(g, degree, direction, points=4000, box=1e4):
    """Independent oracle: the sampled bound LP in the even-Chebyshev basis, by HiGHS.

    P(x) = D sum_j a_j T_2j(x / D) with |a_j| <= box; without the box the
    sampled LP is unbounded on boundary moment sequences (Petersen, degree 8).
    """
    k = degree // 2
    dmax = me.degree_stats(g).max_degree
    basis = np.zeros((k + 1, k + 1))
    for j in range(k + 1):
        basis[: j + 1, j] = np.polynomial.chebyshev.cheb2poly([0] * (2 * j) + [1])[::2]
    nu = np.array([me.trace_moments(g, 2 * i)[2 * i] / dmax ** (2 * i) for i in range(k + 1)])
    cost = dmax * (basis.T @ nu)
    u = (1.0 - np.cos(np.pi * np.arange(points) / (points - 1))) / 2.0
    tvals = np.polynomial.chebyshev.chebvander(u, 2 * k)[:, ::2]
    sign = 1.0 if direction == "above" else -1.0
    res = linprog(
        sign * cost, A_ub=-sign * tvals, b_ub=-sign * u, bounds=[(-box, box)] * (k + 1),
        method="highs",
    )
    assert res.status == 0
    return sign * res.fun


@pytest.mark.parametrize(
    "spec", ["gnp:10:0.2:1", "gnp:15:0.5:2", "gnp:24:0.5:4", "cycle:7", "cycle:9", "path:5", "path:10"]
)
def test_bounds_match_a_dense_grid_lp(spec):
    g = corpus_graph(spec)
    for degree in (2, 4, 6, 8):
        for direction in ("above", "below"):
            sol = solve_bound_lp(lp_problem(g, degree, direction))
            ref = _grid_lp_bound(g, degree, direction)
            assert sol.objective == pytest.approx(ref, rel=1e-5), (degree, direction)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_monotone_and_bracketing():
    for spec in ("petersen", "heawood", "gnp:10:0.2:1"):
        g = corpus_graph(spec)
        energy = me.energy(g)
        entries = me.bound_sweep(g, 6)
        assert [e.degree for e in entries] == [2, 4, 6]
        for e in entries:
            assert e.upper.certified and e.lower.certified
            assert e.lower.objective - 1e-6 <= energy <= e.upper.objective + 1e-6
        for prev, cur in zip(entries, entries[1:]):
            assert cur.upper.objective <= prev.upper.objective + 1e-12
            assert cur.lower.objective >= prev.lower.objective - 1e-12


def test_sweep_rejects_bad_max_degree():
    g = corpus_graph("petersen")
    for bad in (0, 3, 18):
        with pytest.raises(ValueError):
            me.bound_sweep(g, bad)


def test_sweep_computes_moments_once(monkeypatch):
    g = corpus_graph("petersen")
    calls, problems = [], []
    real_moments, real_solve = polyopt.trace_moments, polyopt.solve_bound_lp
    monkeypatch.setattr(polyopt, "trace_moments", lambda g, k: calls.append(k) or real_moments(g, k))
    monkeypatch.setattr(polyopt, "solve_bound_lp", lambda p: problems.append(p) or real_solve(p))
    me.bound_sweep(g, 8)
    monkeypatch.undo()
    assert calls == [8]
    # Each sliced problem equals the one lp_problem builds from its own moments.
    assert [(p.degree, p.direction) for p in problems] == [
        (d, side) for d in (2, 4, 6, 8) for side in ("above", "below")
    ]
    assert problems == [lp_problem(g, p.degree, p.direction) for p in problems]


def test_sweep_to_degree_sixteen_on_petersen():
    # Bland's rule alone needed minutes per solve from degree 12 on.
    entries = me.bound_sweep(corpus_graph("petersen"), 16)
    assert [e.degree for e in entries] == list(range(2, 17, 2))
    for e in entries:
        assert e.upper.certified and e.lower.certified
        assert e.lower.objective - 1e-6 <= 16.0 <= e.upper.objective + 1e-6
    for prev, cur in zip(entries, entries[1:]):
        assert cur.upper.objective <= prev.upper.objective
        assert cur.lower.objective >= prev.lower.objective
    assert entries[-1].upper.objective == pytest.approx(16.0, rel=1e-6)
    assert entries[-1].lower.objective == pytest.approx(16.0, rel=1e-6)


def test_failed_candidate_falls_back_to_the_previous_degree(monkeypatch):
    # A degree-6 solve worse than degree 4 on both sides is replaced by it.
    real = polyopt.solve_bound_lp

    def worse_at_degree_six(problem):
        sol = real(problem)
        if problem.degree == 6:
            worse = 1e3 if problem.direction == "above" else -1e3
            sol = dataclasses.replace(sol, objective=sol.objective + worse)
        return sol

    monkeypatch.setattr(polyopt, "solve_bound_lp", worse_at_degree_six)
    entries = me.bound_sweep(corpus_graph("petersen"), 8)
    assert entries[2].upper is entries[1].upper
    assert entries[2].lower is entries[1].lower
    assert entries[3].upper.polynomial.degree == 8
    assert entries[3].lower.polynomial.degree == 8


@pytest.mark.parametrize("spec, max_degree", [("cycle:7", 12), ("cycle:4", 8), ("bipartite:3:3", 10)])
def test_sweeps_on_boundary_spectra_and_odd_cycles(spec, max_degree):
    g = corpus_graph(spec)
    energy = me.energy(g)
    entries = me.bound_sweep(g, max_degree)
    assert [e.degree for e in entries] == list(range(2, max_degree + 1, 2))
    for e in entries:
        assert e.upper.certified and e.lower.certified
        assert me.soundness_ok(energy, e.upper.objective, e.lower.objective)
    for prev, cur in zip(entries, entries[1:]):
        assert cur.upper.objective <= prev.upper.objective
        assert cur.lower.objective >= prev.lower.objective
    if spec != "cycle:7":
        # |lambda| takes two values: the moments pin the spectrum down.
        assert entries[-1].upper.objective == pytest.approx(energy, rel=1e-5)
        assert entries[-1].lower.objective == pytest.approx(energy, rel=1e-12)


def test_contraction_is_exact_where_coefficient_terms_cancel():
    # Degree 16 on this graph puts a node at NODE_FLOOR beside three others:
    # terms near 1e12 cancel to the energy, and a float sum undercut it by 3e-6.
    g = corpus_graph("gnp:7:0.9:394105")
    energy = me.energy(g)
    sol = solve_bound_lp(lp_problem(g, 16, "above"))
    assert sol.objective >= energy * (1 - SOUNDNESS_RTOL)
    for e in me.bound_sweep(g, 16):
        assert me.soundness_ok(energy, e.upper.objective, e.lower.objective)


# ---------------------------------------------------------------------------
# the integer certificate against a Fraction reference


def fraction_interpolant(nodes, ends, k):
    """The Hermite interpolant of sqrt in u, in Fraction, padded to degree k: the same
    points, at most two conditions each, Newton table and Horner loop."""
    met = Counter(map(math.sqrt, [*ends, *nodes * 2]))
    roots = [Fraction(s) for s in sorted(met) for _ in range(min(met[s], 2))]
    z = [s * s for s in roots]
    diffs = [1 / (a + b) for a, b in zip(roots, roots[1:])]
    newton = [roots[0]]
    for order in range(2, len(z) + 1):
        newton.append(diffs[0])
        diffs = [(b - a) / (z[i + order] - z[i]) for i, (a, b) in enumerate(zip(diffs, diffs[1:]))]
    y = [newton[-1]] + [Fraction(0)] * k
    for i in range(len(z) - 2, -1, -1):
        y = [newton[i] - z[i] * y[0]] + [a - z[i] * b for a, b in zip(y, y[1:])]
    return y


def fraction_certificate(problem):
    """(bound, coefficients) of the certificate built in Fraction, rounded as the
    integer route must round it."""
    y = fraction_interpolant(*_principal_nodes(problem), problem.degree // 2)
    coeffs = [yj * Fraction(problem.scale) ** (1 - 2 * j) for j, yj in enumerate(y)]
    exact = sum(c * int(m) for c, m in zip(coeffs, problem.moments))
    bound, up = float(exact), problem.direction == "above"
    if bound != exact and (bound < exact) == up:
        bound = math.nextafter(bound, math.inf if up else -math.inf)
    return bound, tuple(map(float, coeffs))


def assert_matches_fraction_route(walks, scale):
    for degree in range(0, 17, 2):
        for direction in ("above", "below"):
            problem = LpProblem(degree, tuple(walks[: degree + 1 : 2]), scale, direction)
            sol = solve_bound_lp(problem)
            assert (sol.objective, sol.polynomial.coefficients) == fraction_certificate(problem), problem


def assert_graph_matches_fraction_route(g):
    assert_matches_fraction_route(me.trace_moments(g, 16), float(max(g.degrees())))


@pytest.mark.parametrize("n", range(2, 7))
def test_integer_certificates_equal_fractions_on_every_small_moment_vector(n):
    for g, _, _ in representatives(n):
        assert_graph_matches_fraction_route(g)


# gnp:7:0.9:394105 puts a NODE_FLOOR node beside three others at degree 16.
@pytest.mark.parametrize("spec", ["FFj??", "gnp:7:0.9:394105", "cycle:4", "star:9", "cycle:12", "path:5"])
def test_integer_certificates_equal_fractions_on_boundary_graphs(spec):
    g = me.parse_graph6(spec) if spec == "FFj??" else corpus_graph(spec)
    assert_graph_matches_fraction_route(g)


def test_integer_certificates_equal_fractions_at_a_non_integer_scale():
    assert_matches_fraction_route(me.trace_moments(corpus_graph("cycle:6"), 16), 2.5)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 16), st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
def test_integer_certificates_equal_fractions_on_random_graphs(n, p, seed):
    g = me.generate_from_string(f"gnp:{n}:{p!r}:{seed}")
    if g.m:
        assert_graph_matches_fraction_route(g)


# 0.30000000000000004 and the next float up have one rounded square root.
_ADJACENT = (0.30000000000000004, math.nextafter(0.30000000000000004, 1.0))


@pytest.mark.parametrize(
    "nodes, ends",
    [
        ([0.25, 0.25], (1.0,)),  # equal nodes: four conditions at one point
        ([0.3, 0.3, 0.7], (0.0, 1.0)),
        ([1.0], (1.0,)),  # a node on the end
        ([0.2, 1.0], (0.0, 1.0)),
        ([NODE_FLOOR, NODE_FLOOR], (1.0,)),
        (list(_ADJACENT), (1.0,)),  # adjacent floats that sqrt rounds together
        ([0.1, *_ADJACENT], (0.0,)),
        ([_ADJACENT[0], 0.5, _ADJACENT[1]], ()),
    ],
)
def test_interpolant_keeps_two_conditions_where_square_roots_collide(nodes, ends):
    assert math.sqrt(_ADJACENT[0]) == math.sqrt(_ADJACENT[1])
    k = 2 * len(nodes) + len(ends) - 1
    p, q, delta = polyopt._sqrt_interpolant(nodes, ends, k)
    exact = [Fraction(pj) * Fraction(q) ** (2 * j - 1) / delta for j, pj in enumerate(p)]
    assert exact == fraction_interpolant(nodes, ends, k)


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_property_a_one_by_one_symmetric_matrix_is_its_own_eigenvalue(x):
    # _gauss_nodes returns a rank-1 Jacobi matrix's entry without calling LAPACK.
    assert np.linalg.eigvalsh(np.array([[x]]))[0] == x


atomic_measures = st.lists(
    st.tuples(st.integers(0, 10**4), st.integers(1, 10**6)), min_size=0, max_size=4
)


@settings(max_examples=300, deadline=None)
@given(atomic_measures, st.integers(0, 5))
def test_property_gauss_nodes_equal_the_three_diagonal_reference(atoms, m):
    # m above the number of atoms makes the Hankel matrix singular.
    moments = [sum(w * t**j for t, w in atoms) for j in range(2 * m)]
    assert _gauss_nodes(moments) == reference_gauss_nodes(moments).tolist()


def test_a_certificate_division_with_a_remainder_raises():
    assert polyopt._exact(-12, 4) == -3
    with pytest.raises(ArithmeticError, match="not exact"):
        polyopt._exact(7, 2)


@pytest.mark.parametrize("spec, floor", [("cycle:9", 11.266), ("cycle:11", 13.7697)])
def test_degree_twelve_lower_bound_on_odd_cycles(spec, floor):
    entries = me.bound_sweep(corpus_graph(spec), 12)
    assert entries[-1].lower.certified
    assert entries[-1].lower.objective >= floor


def test_corpus_sweeps_to_degree_sixteen():
    for spec in CORPUS_SPECS:
        g = corpus_graph(spec)
        if me.degree_stats(g).max_degree < 1:
            continue
        energy = me.energy(g)
        entries = me.bound_sweep(g, 16)
        for e in entries:
            assert e.upper.certified and e.lower.certified, (spec, e.degree)
            assert me.soundness_ok(energy, e.upper.objective, e.lower.objective), (spec, e.degree)


@pytest.mark.parametrize("name, energy", [*EXACT_ENERGIES.items(), ("FFj??", FFJ_ENERGY)])
def test_sweep_brackets_the_exact_energy_without_slack(name, energy):
    g = corpus_graph(name) if name in EXACT_ENERGIES else me.parse_graph6(name)
    for e in me.bound_sweep(g, 16):
        assert Decimal(e.lower.objective) <= energy <= Decimal(e.upper.objective), e.degree


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_graph_sweeps_are_certified_sound_and_monotone(data):
    n = data.draw(st.integers(2, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    adjacency = np.zeros((n, n))
    for i, j in edges:
        adjacency[i, j] = adjacency[j, i] = 1.0
    energy = float(np.abs(np.linalg.eigvalsh(adjacency)).sum())
    slack = SOUNDNESS_RTOL * max(1.0, energy)
    entries = me.bound_sweep(me.Graph.from_edges(n, edges), 16)
    for e in entries:
        assert e.upper.certified and e.lower.certified
        assert e.lower.objective - slack <= energy <= e.upper.objective + slack
    for prev, cur in zip(entries, entries[1:]):
        assert cur.upper.objective <= prev.upper.objective
        assert cur.lower.objective >= prev.lower.objective
