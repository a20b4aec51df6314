"""Tangent-quartic family, majorization checks, the exact optimal bound."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

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
    """The integer formula is the dilated P_r contracted in Fractions, rounded up once."""
    s = summary_of(corpus_graph(spec))
    assert_rounded_up(me.bound_at_tangency(s, r), quartic_contraction(s, r))


@pytest.mark.parametrize("spec", unclamped_specs())
def test_bound_at_tangency_is_the_exact_contraction_at_every_sampled_r(spec):
    s = summary_of(corpus_graph(spec))
    for k in range(1, 100):
        assert_rounded_up(me.bound_at_tangency(s, k / 100), quartic_contraction(s, k / 100))


def test_bound_at_tangency_rejects_edgeless_graphs_and_r_outside_the_interval():
    with pytest.raises(me.NoEdgesError):
        me.bound_at_tangency(summary_of(corpus_graph("path:1")), 0.5)
    s = summary_of(corpus_graph("petersen"))
    for r in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="strictly inside"):
            me.bound_at_tangency(s, r)


def test_bound_at_the_optimal_tangency_never_undercuts_heawood_or_k7():
    s = summary_of(corpus_graph("heawood"))
    heawood = me.bound_at_tangency(s, me.optimal_tangency(s)[0])
    assert heawood > 6 and (Fraction(heawood) - 6) ** 2 >= 288  # energy 6 + 12 sqrt(2)
    s = summary_of(corpus_graph("complete:7"))
    assert me.bound_at_tangency(s, me.optimal_tangency(s)[0]) >= 12  # energy 2 (7 - 1)


@pytest.mark.parametrize("spec", unclamped_specs())
def test_optimal_tangency_beats_sampled_r(spec):
    s = summary_of(corpus_graph(spec))
    r_star, clamped = me.optimal_tangency(s)
    assert not clamped
    assert 0.0 < r_star < 1.0
    best = me.bound_at_tangency(s, r_star)
    for k in range(1, 100):
        r = k / 100.0
        assert best <= me.bound_at_tangency(s, r) + 1e-9 * max(1.0, best)


@pytest.mark.parametrize("spec", unclamped_specs())
def test_best_quartic_bound_is_stationary_value(spec):
    s = summary_of(corpus_graph(spec))
    r_star, _ = me.optimal_tangency(s)
    assert me.best_quartic_bound(s) == me.bound_at_tangency(s, r_star)


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
    heawood = me.van_dam_bound(summary_of(corpus_graph("heawood")))
    assert heawood == pytest.approx(6 + 12 * math.sqrt(2), rel=1e-12)
    petersen = me.van_dam_bound(summary_of(corpus_graph("petersen")))
    assert petersen == pytest.approx(10 * (3 + 6 * math.sqrt(2)) / 7, rel=1e-12)
    with pytest.raises(ValueError, match="regular"):
        me.van_dam_bound(summary_of(corpus_graph("star:4")))
    with pytest.raises(me.NoEdgesError):
        me.van_dam_bound(summary_of(corpus_graph("complete:1")))


@pytest.mark.parametrize(
    "spec",
    ["petersen", "heawood", "cycle:5", "cycle:7", "cycle:12", "complete:2", "projective:3", "projective:7"],
)
def test_van_dam_matches_quartic_on_quad_free_regular(spec):
    """For regular graphs without 4-cycles the two routes are one bound, bit for bit."""
    g = corpus_graph(spec)
    s = summary_of(g)
    assert me.is_regular(g) is not None and s.quad_count == 0
    assert me.van_dam_bound(s) == me.best_quartic_bound(s)


def _regular_graphs() -> list:
    lines = (Path(__file__).parent / "data" / "golden" / "families.g6").read_text().split()
    graphs = [(f"families.g6:{i}", me.parse_graph6(line)) for i, line in enumerate(lines, 1)]
    graphs += [(spec, me.generate_from_string(spec)) for spec in ("petersen", "cycle:4", "rook:10")]
    return [pytest.param(g, id=name) for name, g in graphs if me.is_regular(g)]


@pytest.mark.parametrize("g", _regular_graphs())
def test_printed_van_dam_bound_is_at_least_its_closed_form(g):
    """n (d + (d^2 - d) sqrt(d - 1)) / (d^2 - d + 1) in 40 digits never exceeds the printed bound."""
    n, d = g.n, Decimal(me.is_regular(g))
    with localcontext() as ctx:
        ctx.prec = 40
        closed = n * (d + (d * d - d) * (d - 1).sqrt()) / (d * d - d + 1)
        assert Decimal(me.analyze_graph(g).van_dam_bound) >= closed


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
    bound = me.best_quartic_bound(s)
    assert_rounded_up(bound, quartic_contraction(s))
    assert bound >= me.energy(g) - 1e-7 * max(1.0, me.energy(g))
    r_star, clamped = me.optimal_tangency(s)
    if not clamped:
        assert bound == me.bound_at_tangency(s, r_star)
        for r in (0.05, 0.33, 0.66, 0.95):
            assert bound <= me.bound_at_tangency(s, r) + 1e-9 * max(1.0, bound)
    for k in range(1, 100):
        assert_rounded_up(me.bound_at_tangency(s, k / 100), quartic_contraction(s, k / 100))
