"""Combinatorial moment formulas against enumeration oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import menergy as me
from menergy.moments import MomentMismatchError, MomentSummary, NoEdgesError

from conftest import (
    CORPUS_SPECS,
    brute_force_quad_count,
    corpus_graph,
    count_closed_walks,
    summary_of,
)


def test_degree_stats():
    s = me.degree_stats(corpus_graph("star:4"))
    assert s.edge_count == 4
    assert s.max_degree == 4
    assert s.zagreb == 16 + 4


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("complete:5", 15),  # 3 * C(5, 4)
        ("cycle:4", 1),
        ("cycle:5", 0),
        ("petersen", 0),
        ("heawood", 0),
        ("bipartite:3:3", 9),  # C(3,2)^2
        ("path:10", 0),
        ("star:9", 0),
    ],
)
def test_quad_counts_on_small_families(spec, expected):
    g = corpus_graph(spec)
    oracle = brute_force_quad_count(g)
    assert me.moment_summary(g).quad_count == oracle
    assert oracle == expected


def test_rook3_quad_count_matches_oracle_only():
    # The closed form for rook graphs is easy to fumble; trust enumeration.
    g = corpus_graph("rook:3")
    assert me.moment_summary(g).quad_count == brute_force_quad_count(g)


@pytest.mark.parametrize("spec", [s for s in CORPUS_SPECS if me.generate_from_string(s).n <= 12])
def test_quad_count_matches_brute_force(spec):
    g = corpus_graph(spec)
    assert me.moment_summary(g).quad_count == brute_force_quad_count(g)


@pytest.mark.parametrize("spec", CORPUS_SPECS)
def test_summary_agrees_with_walk_formulas(spec):
    g = corpus_graph(spec)
    s = summary_of(g)
    assert s.m2 == 2 * s.m
    assert s.m4 == 2 * s.zagreb - 2 * s.m + 8 * s.quad_count
    assert s.m2 == me.trace_moments(g, 2)[2]
    assert s.m4 == me.trace_moments(g, 4)[4]


@pytest.mark.parametrize("spec", CORPUS_SPECS)
def test_zagreb_bounds(spec):
    g = corpus_graph(spec)
    s = summary_of(g)
    # Cauchy-Schwarz below, max-degree bound above.
    assert s.zagreb * s.n >= (2 * s.m) ** 2
    assert s.zagreb <= 2 * s.m * s.max_degree


@pytest.mark.parametrize("spec", [s for s in CORPUS_SPECS if me.generate_from_string(s).m > 0])
def test_scaled_triple_ordering(spec):
    g = corpus_graph(spec)
    sm = me.scaled_moments(summary_of(g))
    assert sm.m4_scaled <= sm.m2_scaled + 1e-12 * max(1.0, sm.m0_scaled)
    assert sm.m2_scaled <= sm.m0_scaled + 1e-12 * max(1.0, sm.m0_scaled)
    assert sm.m4_scaled > 0


def test_scaled_moments_rejects_an_ordering_broken_by_one():
    # M4 = D^2*M2 + 1 breaks m4_scaled <= m2_scaled by 1e-9 in 2000, which a
    # float check with 1e-12 * m0_scaled slack lets through.
    d, n, m2 = 1000, 2000, 2_000_000
    s = MomentSummary(
        n=n, m=m2 // 2, max_degree=d, zagreb=0, quad_count=0, m2=m2, m4=d * d * m2 + 1, m6=0,
        codegree=np.zeros((0, 0), dtype=np.int64),
    )
    with pytest.raises(MomentMismatchError, match="ordering"):
        me.scaled_moments(s)
    me.scaled_moments(dataclasses.replace(s, m4=d * d * m2))
    with pytest.raises(MomentMismatchError, match="ordering"):
        me.scaled_moments(dataclasses.replace(s, m4=0, m2=n * d * d + 1))


@pytest.mark.parametrize(
    "shift,message", [(8, "4-cycle counts disagree: walk route 61, codegree route 60"),
                      (1, "not divisible by 8")],
)
def test_moment_summary_rejects_a_walk_count_the_codegrees_contradict(shift, message, monkeypatch):
    # rook:4 has 60 quadrilaterals; a Tr(A^4) off by 8 claims one more.
    real = me.moments.trace_moments
    shifted = lambda g, k, square: [t + shift * (j == 4) for j, t in enumerate(real(g, k, square))]
    monkeypatch.setattr(me.moments, "trace_moments", shifted)
    with pytest.raises(MomentMismatchError, match=message):
        me.moment_summary(corpus_graph("rook:4"))


def test_scaled_moments_needs_edges():
    with pytest.raises(NoEdgesError):
        me.scaled_moments(summary_of(corpus_graph("path:1")))


def test_scaled_values_on_heawood():
    sm = me.scaled_moments(summary_of(corpus_graph("heawood")))
    assert sm.m2_scaled == pytest.approx(14.0, abs=1e-12)
    assert sm.m4_scaled == pytest.approx(210 / 27, abs=1e-12)
    assert sm.m0_scaled == pytest.approx(42.0, abs=1e-12)


def _gnp_strategy():
    return st.tuples(
        st.integers(min_value=4, max_value=12),
        st.sampled_from([0.2, 0.4, 0.6, 0.8]),
        st.integers(min_value=0, max_value=10_000),
    )


@settings(max_examples=120, deadline=None)
@given(_gnp_strategy())
def test_property_quads_and_moments(params):
    n, p, seed = params
    g = me.random_gnp(n, p, seed)
    assert me.moment_summary(g).quad_count == brute_force_quad_count(g)
    assert me.trace_moments(g, 4)[4] == count_closed_walks(g, 4)


@settings(max_examples=60, deadline=None)
@given(_gnp_strategy(), st.integers(0, 65))
def test_property_edge_add_monotonicity(params, pick):
    """Adding one edge strictly increases m2 and never decreases q."""
    n, p, seed = params
    g = me.random_gnp(n, p, seed)
    missing = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if not g.has_edge(i, j)
    ]
    if not missing:
        return
    extra = missing[pick % len(missing)]
    bigger = me.Graph.from_edges(n, list(g.edges()) + [extra])
    assert me.moment_summary(bigger).m2 == me.moment_summary(g).m2 + 2
    assert me.moment_summary(bigger).quad_count >= me.moment_summary(g).quad_count
