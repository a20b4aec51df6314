"""Eigensolver and exact walk counts against independent references."""

import math

import numpy as np
import pytest
import scipy.linalg

import menergy as me
from menergy.report import SOUNDNESS_RTOL
from menergy.spectral import TRACE_MAX_POWER, TRACE_MAX_VERTICES, CapExceededError

from conftest import CORPUS_SPECS, corpus_graph, count_closed_walks, spectrum_of


@pytest.mark.parametrize("spec", CORPUS_SPECS)
def test_eigenvalues_match_lapack(spec):
    g = corpus_graph(spec)
    ours = np.array(spectrum_of(g).eigenvalues)
    # QR iteration, not the divide-and-conquer driver behind numpy.linalg.eigh.
    ref = scipy.linalg.eigvalsh(me.adjacency_matrix(g).astype(float), driver="ev")[::-1]
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


@pytest.mark.parametrize("spec", CORPUS_SPECS)
def test_residual_bounds_energy_error_far_below_soundness_gate(spec):
    # Energy is the trace norm, so sqrt(n) * ||A V - V Lambda||_F bounds the
    # energy error of the computed spectrum.
    g = corpus_graph(spec)
    s = spectrum_of(g)
    energy = sum(abs(v) for v in s.eigenvalues)
    assert math.sqrt(g.n) * s.residual <= 1e-3 * SOUNDNESS_RTOL * energy


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
    # K_50 at power 16 overflows int64 (about 49^16 ~ 1e27); the exact
    # integer escalation must keep the closed-form value (n-1)^k + (n-1)(-1)^k.
    g = me.complete(50)
    got = me.trace_moments(g, 16)
    for k in range(17):
        assert got[k] == 49**k + 49 * (-1) ** k if k else g.n


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
    ],
)
def test_trace_moments_match_the_power_chain(spec, k):
    # Together these sum in every tier: float64, int64 rows and Python integers.
    # In 2 K29 at k = 11 each row sum is below 2^53 but the trace is not, where
    # a float64 sum is off by 4.
    g = me.generate_from_string(spec)
    assert me.trace_moments(g, k) == power_chain_traces(g, k)


def test_trace_moments_exact_on_escalated_powers():
    # K_200 is about the smallest graph whose half powers reach 2^53: A^8 is
    # computed in Python integers, and must keep the closed form.
    g = me.complete(200)
    got = me.trace_moments(g, 16)
    assert all(got[k] == 199**k + 199 * (-1) ** k for k in range(1, 17))


def test_spectrum_tuple_immutable():
    s = spectrum_of(corpus_graph("cycle:4"))
    assert isinstance(s.eigenvalues, tuple)
