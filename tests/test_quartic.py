"""Tangent-quartic family, majorization checks, the exact optimal bound."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import menergy as me

from conftest import CORPUS_SPECS, assert_rounded_up, corpus_graph, quartic_contraction, summary_of


def unclamped_specs():
    out = []
    for spec in CORPUS_SPECS:
        g = corpus_graph(spec)
        if g.m == 0:
            continue
        _, clamped = me.optimal_tangency(summary_of(g))
        if not clamped:
            out.append(spec)
    return out


@pytest.mark.parametrize("r", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_tangent_quartic_touches_at_r_and_one(r):
    p = me.tangent_quartic(r)
    assert p.scale == 1.0
    assert p(r) == pytest.approx(r, abs=1e-12)
    assert p(1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("r", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_tangent_quartic_majorizes(r):
    p = me.tangent_quartic(r)
    check = me.verify_majorization(p, "above")
    assert check.ok
    xs = np.linspace(0.0, 1.0, 4001)
    vals = np.array([p(x) for x in xs])
    assert (vals + 1e-12 >= xs).all()


def test_tangent_quartic_tangency_is_second_order():
    # Double contact: P - x has a double root at r, so the dip near r is
    # quadratic in the offset.
    r = 0.6
    p = me.tangent_quartic(r)
    for eps in (1e-3, 1e-4):
        assert p(r + eps) - (r + eps) < 10 * eps**2
        assert p(r - eps) - (r - eps) < 10 * eps**2


def test_tangent_quartic_rejects_bad_r():
    for r in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            me.tangent_quartic(r)


def test_even_polynomial_evaluation():
    p = me.EvenPolynomial((1.0, 2.0, 3.0), scale=1.0)
    assert p(2.0) == 1.0 + 2.0 * 4.0 + 3.0 * 16.0
    assert p.degree == 4
    assert p(-2.0) == p(2.0)


def test_even_polynomial_rejects_nonfinite():
    with pytest.raises(ValueError):
        me.EvenPolynomial((1.0, float("nan")), scale=1.0)
    with pytest.raises(ValueError):
        me.EvenPolynomial((1.0,), scale=0.0)


def test_dilate_maps_interval():
    r = 0.4
    p = me.tangent_quartic(r)
    q = me.dilate(p, 5.0)
    assert q.scale == 5.0
    for x in (0.3, 2.0, 4.9):
        assert q(x) == pytest.approx(p(x / 5.0) * 5.0, rel=1e-12)
    assert q(5.0 * r) == pytest.approx(5.0 * r, abs=1e-10)


def test_dilate_requires_unit_source():
    q = me.dilate(me.tangent_quartic(0.5), 3.0)
    with pytest.raises(ValueError):
        me.dilate(q, 6.0)


def test_verify_majorization_flags_failure():
    # x^2 sits below x on (0, 1), so it cannot majorize |x|.
    p = me.EvenPolynomial((0.0, 1.0), scale=1.0)
    check = me.verify_majorization(p, "above")
    assert not check.ok
    assert check.worst_gap < -1e-3
    assert 0.0 < check.worst_x < 1.0


def test_verify_majorization_below_direction():
    p = me.EvenPolynomial((0.0, 1.0), scale=1.0)
    assert me.verify_majorization(p, "below").ok
    shifted = me.EvenPolynomial((0.5, 1.0), scale=1.0)
    assert not me.verify_majorization(shifted, "below").ok


@pytest.mark.parametrize("spec", ["petersen", "heawood", "gnp:15:0.5:2", "rook:4"])
@pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
def test_bound_at_tangency_equals_polynomial_route(spec, r):
    """The closed-form evaluation must agree with dilate-then-contract."""
    g = corpus_graph(spec)
    s = summary_of(g)
    sm = me.scaled_moments(s)
    via_formula = me.bound_at_tangency(sm, r)
    c0, c2, c4 = me.dilate(me.tangent_quartic(r), float(s.max_degree)).coefficients
    assert via_formula == pytest.approx(c0 * s.n + c2 * s.m2 + c4 * s.m4, rel=1e-9)


@pytest.mark.parametrize("spec", unclamped_specs())
def test_optimal_tangency_beats_sampled_r(spec):
    s = summary_of(corpus_graph(spec))
    sm = me.scaled_moments(s)
    r_star, clamped = me.optimal_tangency(s)
    assert not clamped
    assert 0.0 < r_star < 1.0
    best = me.bound_at_tangency(sm, r_star)
    for k in range(1, 100):
        r = k / 100.0
        assert best <= me.bound_at_tangency(sm, r) + 1e-9 * max(1.0, best)


@pytest.mark.parametrize("spec", unclamped_specs())
def test_best_quartic_bound_is_stationary_value(spec):
    s = summary_of(corpus_graph(spec))
    sm = me.scaled_moments(s)
    r_star, _ = me.optimal_tangency(s)
    assert me.best_quartic_bound(s) == pytest.approx(
        me.bound_at_tangency(sm, r_star), rel=1e-11
    )


def test_clamped_cases():
    # Single edge: A = B = C, bound collapses to B with r pinned at 1.
    s = summary_of(corpus_graph("complete:2"))
    r, clamped = me.optimal_tangency(s)
    assert clamped and r == pytest.approx(1.0)
    assert me.best_quartic_bound(s) == pytest.approx(2.0, abs=1e-12)
    # C4: A = B < C, the touching point collapses inward instead.
    s4 = summary_of(corpus_graph("cycle:4"))
    r4, clamped4 = me.optimal_tangency(s4)
    assert clamped4 and r4 <= 1e-6
    assert me.best_quartic_bound(s4) == pytest.approx(4.0, abs=1e-12)


def test_quartic_bound_needs_edges():
    with pytest.raises(me.NoEdgesError):
        me.best_quartic_bound(summary_of(corpus_graph("path:1")))


def test_known_bounds():
    heawood = me.best_quartic_bound(summary_of(corpus_graph("heawood")))
    assert heawood == pytest.approx(6 + 12 * math.sqrt(2), rel=1e-12)
    # The energy 6 + 12 sqrt(2) is irrational, so the bound lies strictly above it.
    assert heawood > 6 and (Fraction(heawood) - 6) ** 2 > 288
    k5 = me.best_quartic_bound(summary_of(corpus_graph("complete:5")))
    assert k5 == pytest.approx(8.0, rel=1e-12)


def test_van_dam_bound_values():
    assert me.van_dam_bound(14, 3) == pytest.approx(6 + 12 * math.sqrt(2), rel=1e-12)
    assert me.van_dam_bound(10, 3) == pytest.approx(
        10 * (3 + 6 * math.sqrt(2)) / 7, rel=1e-12
    )
    with pytest.raises(ValueError):
        me.van_dam_bound(1, 3)
    with pytest.raises(ValueError):
        me.van_dam_bound(10, 0)


@pytest.mark.parametrize("spec", ["petersen", "heawood", "cycle:7", "cycle:12", "projective:3"])
def test_van_dam_matches_quartic_on_quad_free_regular(spec):
    """For regular graphs without 4-cycles the two routes are one formula."""
    g = corpus_graph(spec)
    s = summary_of(g)
    assert me.is_regular(g) is not None and s.quad_count == 0
    vd = me.van_dam_bound(g.n, me.is_regular(g))
    assert me.best_quartic_bound(s) == pytest.approx(vd, rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=5, max_value=16),
    st.sampled_from([0.3, 0.5, 0.7]),
    st.integers(min_value=0, max_value=5000),
)
def test_property_bound_sound_and_optimal(n, p, seed):
    g = me.random_gnp(n, p, seed)
    if g.m == 0:
        return
    s = summary_of(g)
    sm = me.scaled_moments(s)
    bound = me.best_quartic_bound(s)
    assert_rounded_up(bound, quartic_contraction(s))
    assert bound >= me.energy(g) - 1e-7 * max(1.0, me.energy(g))
    r_star, clamped = me.optimal_tangency(s)
    if not clamped:
        for r in (0.05, 0.33, 0.66, 0.95):
            assert bound <= me.bound_at_tangency(sm, r) + 1e-9 * max(1.0, bound)
