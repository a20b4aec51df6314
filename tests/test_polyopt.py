"""LP bound optimiser: simplex core, problem assembly, and certified solves."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import menergy as me
from menergy import polyopt
from menergy.polyopt import (
    LpConvergenceError,
    LpInfeasibleError,
    LpProblem,
    _cut_points,
    _dedupe_grid,
    _minimal_norm_refit,
    _minimize_over_halfplanes,
    lp_problem,
    simplex_standard_form,
    solve_bound_lp,
)
from menergy.quartic import verify_majorization

from conftest import corpus_graph, spectrum_of, summary_of


# ---------------------------------------------------------------------------
# simplex core


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
        assert ref.status == 0
        assert obj == pytest.approx(ref.fun, abs=1e-7)
        assert np.all(x >= -1e-9)
        assert np.allclose(a @ x, b, atol=1e-7)
        # Dual feasibility of the equality multipliers: reduced costs >= 0.
        assert np.all(c - a.T @ duals >= -1e-7)
    else:
        assert status == "unbounded"
        assert ref.status == 3


def test_halfplane_minimiser_free_variables():
    # min y0 over y0 >= -2, y1 >= 1, y0 + y1 >= 0: free variables go negative.
    cost = np.array([1.0, 0.0])
    gmat = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    h = np.array([-2.0, 1.0, 0.0])
    y, value = _minimize_over_halfplanes(cost, gmat, h)
    assert value == pytest.approx(-2.0, abs=1e-9)
    assert y[0] == pytest.approx(-2.0, abs=1e-8)


def test_minimal_norm_refit_picks_small_point():
    # Optimal face is {y0 = 0, -3 <= y1 <= 3}; the refit should land at 0.
    cost = np.array([1.0, 0.0])
    gmat = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    h = np.array([0.0, -3.0, -3.0])
    y = _minimal_norm_refit(cost, gmat, h, 0.0)
    assert y is not None
    assert y == pytest.approx([0.0, 0.0], abs=1e-6)


# ---------------------------------------------------------------------------
# grid maintenance helpers


def test_dedupe_grid_collapses_near_duplicates():
    pts = [0.0, 1e-12, 0.5, 0.5 + 1e-12, 1.0]
    assert _dedupe_grid(pts) == [0.0, 0.5, 1.0]


def test_dedupe_grid_keeps_right_endpoint():
    pts = [0.0, 1.0 - 1e-12, 1.0]
    assert _dedupe_grid(pts) == [0.0, 1.0]


def test_cut_points_adds_violator_and_midpoints():
    out = _cut_points([0.0, 1.0], 0.5)
    assert sorted(out) == pytest.approx([0.25, 0.5, 0.75])


def test_cut_points_skips_crowded_cut():
    # Cut sits on top of an existing sample: only the far midpoint survives.
    out = _cut_points([0.0, 1.0], 5e-10)
    assert len(out) == 1
    assert out[0] == pytest.approx(0.5, abs=1e-6)


# ---------------------------------------------------------------------------
# problem assembly and validation


def test_problem_validation_rejections():
    grid = tuple(np.linspace(0.0, 3.0, 70))
    ok = dict(degree=2, moments=(10, 30), scale=3.0, grid=grid, direction="above")

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
    bad(grid=grid[:40])
    bad(grid=tuple(np.linspace(0.1, 3.0, 70)))
    bad(grid=tuple(np.linspace(0.0, 2.0, 70)))
    bad(grid=grid[:30] + (grid[29],) + grid[30:])
    bad(coefficient_cap=0.0)


def test_lp_problem_builder():
    g = corpus_graph("petersen")
    p = lp_problem(g, 4, "above")
    assert p.degree == 4
    assert p.scale == 3.0
    assert p.moments == (10, 30, 150)
    assert len(p.grid) == 256
    assert p.grid[0] == 0.0 and p.grid[-1] == 3.0
    assert all(b > a for a, b in zip(p.grid, p.grid[1:]))
    # Degree 0 keeps a floor of 33 points.
    assert len(lp_problem(g, 0, "above").grid) == 33


def test_lp_problem_rejects_edgeless_and_bad_sizes():
    with pytest.raises(me.NoEdgesError):
        lp_problem(corpus_graph("path:1"), 2, "above")
    with pytest.raises(ValueError, match="grid_size"):
        lp_problem(corpus_graph("petersen"), 4, "above", grid_size=100)
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
    m2 = me.trace_moment(g, 2)
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
        closed = me.best_quartic_bound(me.scaled_moments(summary_of(g)))
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
    check = verify_majorization(sol.polynomial, "above", grid_points=5000)
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
        grid=tuple(2 * x for x in base.grid),
        direction="above",
    )
    a = solve_bound_lp(base)
    b = solve_bound_lp(doubled)
    assert b.objective == pytest.approx(2 * a.objective, rel=1e-6)


def test_cap_binding_is_reported():
    # cap == D makes the optimal constant sit exactly on the box.
    g = corpus_graph("petersen")
    sol = solve_bound_lp(lp_problem(g, 0, "above", coefficient_cap=3.0))
    assert sol.status == "capped"
    assert sol.certified
    assert sol.objective == pytest.approx(30.0, rel=1e-9)


def test_cap_too_tight_is_infeasible():
    g = corpus_graph("petersen")
    with pytest.raises(LpInfeasibleError, match="cap"):
        solve_bound_lp(lp_problem(g, 0, "above", coefficient_cap=1.5))


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
