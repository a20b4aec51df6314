"""Eigensolver and exact walk counts against independent references."""

import math
from decimal import Decimal

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import menergy as me
from menergy.report import SOUNDNESS_RTOL
from menergy.spectral import TRACE_MAX_POWER, TRACE_MAX_VERTICES, CapExceededError

from conftest import (
    CORPUS_SPECS,
    EXACT_ENERGIES,
    FFJ_ENERGY,
    HEAWOOD_ENERGY,
    corpus_graph,
    count_closed_walks,
    reference_eigenpairs,
    spectrum_of,
)


@pytest.mark.parametrize("spec", CORPUS_SPECS)
def test_eigenvalues_match_lapack(spec):
    g = corpus_graph(spec)
    ours = np.array(spectrum_of(g).eigenvalues)
    # Bisection (dstebz), not the dsterf QR iteration behind numpy.linalg.eigvalsh.
    ref = scipy.linalg.eigvalsh(me.adjacency_matrix(g).astype(float), driver="evx")[::-1]
    assert np.allclose(ours, ref, atol=1e-9)


@pytest.mark.parametrize("spec", CORPUS_SPECS)
def test_eigenvalues_sorted_descending(spec):
    vals = spectrum_of(corpus_graph(spec)).eigenvalues
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_known_spectra():
    # K_n: (n-1) once, -1 with multiplicity n-1.
    vals = spectrum_of(corpus_graph("complete:5")).eigenvalues
    assert vals == pytest.approx((4, -1, -1, -1, -1), abs=1e-10)
    # Petersen: {3, 1^5, -2^4}.
    vals = spectrum_of(corpus_graph("petersen")).eigenvalues
    assert vals == pytest.approx((3,) + (1,) * 5 + (-2,) * 4, abs=1e-10)
    # C_4: {2, 0, 0, -2}.
    vals = spectrum_of(corpus_graph("cycle:4")).eigenvalues
    assert vals == pytest.approx((2, 0, 0, -2), abs=1e-10)


def test_energy_values():
    assert me.energy(corpus_graph("petersen")) == pytest.approx(16.0, abs=1e-9)
    assert me.energy(corpus_graph("complete:8")) == pytest.approx(14.0, abs=1e-9)
    assert me.energy(corpus_graph("heawood")) == pytest.approx(6 + 12 * math.sqrt(2), abs=1e-9)
    assert me.energy(me.star(4)) == pytest.approx(4.0, abs=1e-12)


def test_energy_of_edgeless_graph():
    assert me.energy(corpus_graph("path:1")) == 0.0


def test_residual_reported():
    s = me.eigenvalues(corpus_graph("petersen"))
    assert 0.0 <= s.residual < 1e-10 * 10 * 3


def test_residual_is_the_second_moment_defect():
    for spec in ("petersen", "gnp:24:0.5:4", "path:1"):
        g = corpus_graph(spec)
        s = spectrum_of(g)
        assert s.residual == abs(math.fsum(v * v for v in s.eigenvalues) - 2 * g.m)


@pytest.mark.parametrize("spec", CORPUS_SPECS)
def test_residual_bounds_energy_error_far_below_soundness_gate(spec):
    # The reference eigenpairs' sqrt(n) * ||A V - V Lambda||_F bounds the error of
    # their energy; the printed energy must sit as far inside the gate from it.
    g = corpus_graph(spec)
    reference, residual = reference_eigenpairs(g)
    gate = 1e-3 * SOUNDNESS_RTOL * reference
    assert math.sqrt(g.n) * residual <= gate
    assert abs(me.energy(g) - reference) <= gate


@pytest.mark.parametrize(
    "name, exact",
    [*EXACT_ENERGIES.items(), ("FFj??", FFJ_ENERGY), ("heawood", HEAWOOD_ENERGY)],
)
def test_energy_matches_the_exact_energy_far_below_soundness_gate(name, exact):
    g = me.parse_graph6(name) if name == "FFj??" else corpus_graph(name)
    assert abs(Decimal(me.energy(g)) - exact) <= Decimal(1e-3 * SOUNDNESS_RTOL) * exact


def test_spectrum_refused_above_vertex_cap():
    g = me.Graph.from_edges(TRACE_MAX_VERTICES + 1, [])
    with pytest.raises(CapExceededError, match="cap"):
        me.eigenvalues(g)


@pytest.mark.parametrize("spec", ["petersen", "cycle:7", "star:4", "gnp:10:0.2:1"])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6])
def test_trace_moments_count_closed_walks(spec, k):
    g = corpus_graph(spec)
    assert me.trace_moments(g, k)[k] == count_closed_walks(g, k)


@pytest.mark.parametrize("spec", CORPUS_SPECS)
def test_trace_moments_match_power_sums(spec):
    g = corpus_graph(spec)
    moments = me.trace_moments(g, TRACE_MAX_POWER)
    vals = np.array(spectrum_of(g).eigenvalues)
    for k in range(TRACE_MAX_POWER + 1):
        # The float power sum errs in proportion to sum |v|^k, which dwarfs the
        # exact value where odd moments cancel (bipartite graphs: exactly 0).
        slack = max(1e-6, 1e-13 * float((np.abs(vals) ** k).sum()))
        assert moments[k] == pytest.approx(float((vals**k).sum()), rel=1e-9, abs=slack)


def test_trace_moments_prefix_consistency():
    g = corpus_graph("heawood")
    assert me.trace_moments(g, 4) == me.trace_moments(g, 8)[:5]
    assert me.trace_moments(g, 0) == [14]


def test_odd_moments_vanish_on_bipartite():
    g = corpus_graph("projective:3")
    moments = me.trace_moments(g, 9)
    assert moments[1::2] == [0, 0, 0, 0, 0]


def test_trace_moment_caps():
    with pytest.raises(CapExceededError):
        me.trace_moments(corpus_graph("petersen"), TRACE_MAX_POWER + 2)
    with pytest.raises(ValueError, match="non-negative"):
        me.trace_moments(corpus_graph("petersen"), -1)
    assert TRACE_MAX_VERTICES >= 2048


def test_trace_moments_exact_at_overflow_scale():
    # K_50 at power 16 overflows int64 (about 49^16 ~ 1e27); the residues and
    # their CRT must keep the closed-form value (n-1)^k + (n-1)(-1)^k.
    g = me.complete(50)
    got = me.trace_moments(g, 16)
    for k in range(17):
        assert got[k] == 49**k + 49 * (-1) ** k if k else g.n


def test_the_primes_serve_every_graph_under_the_caps():
    primes = me.spectral._PRIMES
    assert all(p > 2 and all(p % d for d in range(2, math.isqrt(p) + 1)) for p in primes)
    # A row of products of two residues sums exactly in float64 ...
    assert TRACE_MAX_VERTICES * (max(primes) - 1) ** 2 < 2**53
    # ... and together the residues pin down n D^k, which bounds every Tr(A^k).
    assert math.prod(primes) > TRACE_MAX_VERTICES * (TRACE_MAX_VERTICES - 1) ** TRACE_MAX_POWER


@pytest.mark.parametrize(
    "spec,closed_form",
    [
        ("star:256", lambda k: 2 * 16**k * (k % 2 == 0)),  # eigenvalues +-16 and 0
        ("complete:256", lambda k: 255**k + 255 * (-1) ** k),
        ("complete:257", lambda k: 256**k + 256 * (-1) ** k),
        ("bipartite:257:257", lambda k: 2 * 257**k * (k % 2 == 0)),  # eigenvalues +-257
    ],
)
def test_walk_counts_where_a4_leaves_single_precision(spec, closed_form):
    # A^(j+1) is a float32 product while D^j < 2^24.  With D = 256, D^3 = 2^24, so A^4
    # is the first float64 product; K_256 (D = 255) forms A^4 in float32 with entries
    # just below 2^24.  K_257,257 reaches the bound: its A^4 holds 257^3, an odd number
    # above 2^24 that float32 cannot represent.
    g = me.generate_from_string(spec)
    assert me.trace_moments(g, 8) == [g.n] + [closed_form(k) for k in range(1, 9)]


def power_chain_traces(g, max_power):
    """Tr(A^k) from the chain of full products A^2, ..., A^max_power and their
    diagonals, escalated to Python integers before an entry could reach 2^53."""
    base = g.matrix.astype(np.float64)
    max_degree = max(1, max(g.degrees(), default=0))
    out, power = [g.n, 0], base
    for _ in range(2, max_power + 1):
        if power.dtype != object and int(power.max(initial=0)) * max_degree >= 2**53:
            power = power.astype(np.int64).astype(object)
            base = base.astype(np.int64).astype(object)
        power = power @ base
        out.append(sum(int(x) for x in power.diagonal()))
    return out[: max_power + 1]


@pytest.mark.parametrize(
    "spec,k",
    [
        ("petersen", 16),
        ("gnp:24:0.5:4", 16),
        ("star:40", 16),
        ("gnp:60:0.9:1", 16),
        ("complete:300", 8),
        ("union:complete:29,complete:29", 11),
        ("star:200", 16),
        ("complete:200", 16),
    ],
)
def test_trace_moments_match_the_power_chain(spec, k):
    # Together these sum in every tier: float64, int64 rows and residues with CRT.
    # In 2 K29 at k = 11 each row sum is below 2^53 but the trace is not, where
    # a float64 sum is off by 4.  With D = 200 and 199, D^7 passes 2^53, so forming
    # A^8 scans A^7: star:200 stays in float64 and complete:200 goes to residues.
    g = me.generate_from_string(spec)
    assert me.trace_moments(g, k) == power_chain_traces(g, k)


@settings(deadline=None)
@given(st.integers(0, 30), st.floats(0, 1), st.integers(0, 10_000))
def test_property_trace_moments_match_the_power_chain(n, p, seed):
    g = me.random_gnp(n, p, seed)
    assert me.trace_moments(g, TRACE_MAX_POWER) == power_chain_traces(g, TRACE_MAX_POWER)


def test_a_shared_square_gives_the_same_walk_counts():
    g = me.generate_from_string("gnp:40:0.6:3")
    a, single = g.matrix.astype(np.float64), g.matrix.astype(np.float32)
    for k in range(TRACE_MAX_POWER + 1):
        expected = power_chain_traces(g, k)
        assert me.trace_moments(g, k, a @ a) == me.trace_moments(g, k) == expected
        assert me.trace_moments(g, k, single @ single) == expected


def test_trace_moments_exact_on_escalated_powers(monkeypatch):
    # K_200 is about the smallest graph whose half powers reach 2^53: A^8 is
    # formed modulo primes, and its traces must keep the closed form.
    calls = []
    real = me.spectral._modular_traces
    monkeypatch.setattr(me.spectral, "_modular_traces", lambda *a: calls.append(a[1]) or real(*a))
    for n in (200, 300):
        got = me.trace_moments(me.complete(n), 16)
        assert all(got[k] == (n - 1) ** k + (n - 1) * (-1) ** k for k in range(1, 17))
        assert (8, 8) in calls.pop()


@pytest.mark.slow
def test_trace_moments_of_a_dense_bipartite_graph_on_residues():
    # K_300,300 has eigenvalues +-300 and 0: Tr(A^k) = 2 (300^2)^(k/2) for even k.
    got = me.trace_moments(me.generate_from_string("bipartite:300:300"), 16)
    assert got == [600] + [2 * (300**2) ** (k // 2) if k % 2 == 0 else 0 for k in range(1, 17)]


def test_energy_adds_left_to_right_on_every_python_version():
    # Python 3.12's sum() compensates its rounding and would give 1e16 + 2.
    assert me.Spectrum((1e16, 1.0, 1.0), 0.0).energy == 1e16


def test_spectrum_tuple_immutable():
    s = spectrum_of(corpus_graph("cycle:4"))
    assert isinstance(s.eigenvalues, tuple)
