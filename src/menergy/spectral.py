"""Adjacency spectra, graph energy, and exact closed-walk counts.

Eigenpairs come from LAPACK (``numpy.linalg.eigh``).  Energy is the trace norm
of A, so sqrt(n) times the residual ||A V - V Lambda||_F that a Spectrum carries
bounds the energy error of the computed spectrum.  Every dense kernel reads the
graph's stored uint8 matrix and refuses graphs above TRACE_MAX_VERTICES.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import TRACE_MAX_VERTICES, Graph

TRACE_MAX_POWER = 16


class CapExceededError(ValueError):
    """A request outside the supported exact-arithmetic size caps."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order plus the eigenpair residual ``||A V - V Lambda||_F``."""

    eigenvalues: tuple[float, ...]
    residual: float


def dense_adjacency(g: Graph) -> np.ndarray:
    """The float64 adjacency matrix, refused above the dense-kernel vertex cap."""
    if g.n > TRACE_MAX_VERTICES:
        raise CapExceededError(f"n={g.n} exceeds the dense-matrix cap {TRACE_MAX_VERTICES}")
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


def trace_moments(g: Graph, max_power: int) -> list[int]:
    """Exact Tr(A^k) for k = 0..max_power; equals the closed-walk counts.

    Powers are computed in float64 BLAS while exact and escalated to Python
    integers when an entry of the next product could reach 2^53.  Entries of
    A^k are walk counts, so every partial sum in a product is a non-negative
    integer bounded by the final entry and the pre-multiply check is
    sufficient.
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
    power = base
    for _ in range(2, max_power + 1):
        if power.dtype != object and int(power.max(initial=0)) * max(1, max_degree) >= 2**53:
            # Through int64 first: float64 straight to object gives Python floats.
            power = power.astype(np.int64).astype(object)
            base = base.astype(np.int64).astype(object)
        power = power @ base
        out.append(sum(int(x) for x in power.diagonal()))
    return out


def trace_moment(g: Graph, k: int) -> int:
    """Exact Tr(A^k), the number of closed walks of length k."""
    return trace_moments(g, k)[k]
