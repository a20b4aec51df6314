"""Adjacency spectra, graph energy, and exact closed-walk counts.

Eigenpairs come from LAPACK (``numpy.linalg.eigh``).  Energy is the trace norm
of A, so sqrt(n) times the residual ||A V - V Lambda||_F that a Spectrum carries
bounds the energy error of the computed spectrum.  Every dense kernel reads the
graph's stored uint8 matrix and refuses graphs above TRACE_MAX_VERTICES.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import TRACE_MAX_VERTICES, CapExceededError, Graph, check_order  # noqa: F401

TRACE_MAX_POWER = 16


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order plus the eigenpair residual ``||A V - V Lambda||_F``."""

    eigenvalues: tuple[float, ...]
    residual: float


def dense_adjacency(g: Graph) -> np.ndarray:
    """The float64 adjacency matrix, refused above the dense-kernel vertex cap."""
    check_order(g.n)
    return g.matrix.astype(np.float64)


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix with int64 entries, refused above the vertex cap."""
    return dense_adjacency(g).astype(np.int64)


def eigenvalues(g: Graph) -> Spectrum:
    """All adjacency eigenvalues of g, descending."""
    if g.n == 0:
        return Spectrum((), 0.0)
    a = dense_adjacency(g)
    vals, vecs = np.linalg.eigh(a)
    residual = float(np.linalg.norm(a @ vecs - vecs * vals))
    return Spectrum(tuple(vals[::-1].tolist()), residual)


def energy(g: Graph) -> float:
    """Sum of the absolute values of all adjacency eigenvalues."""
    return float(sum(abs(v) for v in eigenvalues(g).eigenvalues))


def _exact(power: np.ndarray) -> np.ndarray:
    """power with Python-int entries, through int64: float64 straight to object gives floats."""
    return power if power.dtype == object else power.astype(np.int64).astype(object)


def _inner(x: np.ndarray, y: np.ndarray, row_cap: int) -> int:
    """Exact <x, y> of walk-count matrices whose termwise products sum to at most row_cap per row.

    Where n row_cap misses the float64 tier, max(x) times the largest row sum of y also
    bounds every row.  Float64 powers hold integers below 2^53 and n <= 2^11, so their
    row sums are exact in uint64.
    """
    n = len(x)
    if n * row_cap >= 2**53 and y.dtype != object:
        row_cap = min(row_cap, int(x.max()) * int(y.astype(np.uint64).sum(axis=1).max()))
    if n * row_cap < 2**53:  # every partial sum is an integer below 2^53
        return int(np.vdot(x, y))
    if row_cap < 2**63:
        return sum((x.astype(np.int64) * y.astype(np.int64)).sum(axis=1).tolist())
    return int((_exact(x) * _exact(y)).sum())


def trace_moments(g: Graph, max_power: int) -> list[int]:
    """Exact Tr(A^k) for k = 0..max_power; equals the closed-walk counts.

    Tr(A^k) = <A^(k//2), A^(k-k//2)>, except Tr(A^4) = <A, A^3>, which keeps the M4
    cross-check in moment_summary off the codegree matrix A^2.  Powers are float64
    BLAS products, escalated to Python integers when an entry of the next product
    could reach 2^53 (entries are walk counts, so every partial sum is bounded by
    the final entry).  Row i of the sum for Tr(A^k) is (A^k)_ii <= D^k, or a tighter
    cap read off the two half powers (_inner).
    """
    if max_power < 0:
        raise ValueError(f"power must be non-negative, got {max_power}")
    out = [g.n, 0][: max_power + 1]
    if max_power <= 1:
        return out
    if max_power > TRACE_MAX_POWER:
        raise CapExceededError(f"power {max_power} exceeds cap {TRACE_MAX_POWER}")
    base = dense_adjacency(g)
    max_degree = max(g.degrees(), default=0)
    top = max((max_power + 1) // 2, 3 if max_power >= 4 else 1)  # A^3 serves Tr(A^4)
    powers = [None, base]
    for _ in range(2, top + 1):
        power = powers[-1]
        if power.dtype != object and int(power.max(initial=0)) * max(1, max_degree) >= 2**53:
            power, base = _exact(power), _exact(base)
        powers.append(power @ base)
    for k in range(2, max_power + 1):
        low = 1 if k == 4 else k // 2
        out.append(_inner(powers[low], powers[k - low], max_degree**k))
    return out

