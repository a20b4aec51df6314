"""Adjacency spectra, graph energy, and exact closed-walk counts.

Eigenvalues come from LAPACK (``numpy.linalg.eigvalsh``); the energy sum |lambda_i|
needs no eigenvectors.  A Spectrum carries the second-moment defect
|sum lambda_i^2 - 2m|, which compares the computed spectrum with the exact
Tr(A^2) = 2m as a cheap accuracy signal.  Every dense kernel reads the graph's
stored uint8 matrix and refuses graphs above TRACE_MAX_VERTICES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import TRACE_MAX_VERTICES, CapExceededError, Graph, check_order  # noqa: F401

TRACE_MAX_POWER = 16


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order plus their second-moment defect ``|sum lambda_i^2 - 2m|``.

    ``residual`` is an accuracy signal, not an error bound: a spectrum can match
    Tr(A^2) = 2m exactly and still be off in single eigenvalues.
    """

    eigenvalues: tuple[float, ...]
    residual: float

    @property
    def energy(self) -> float:
        """Sum of the absolute eigenvalues, added left to right in descending eigenvalue order.

        An explicit loop, not sum(): from Python 3.12 on, sum() of floats compensates
        its rounding, which would make the printed energy depend on the Python version.
        """
        total = 0.0
        for v in self.eigenvalues:
            total += abs(v)
        return total


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
    vals = np.linalg.eigvalsh(dense_adjacency(g))
    defect = abs(math.fsum(np.square(vals).tolist()) - 2 * g.m)
    return Spectrum(tuple(vals[::-1].tolist()), defect)


def energy(g: Graph) -> float:
    """Sum of the absolute values of all adjacency eigenvalues."""
    return eigenvalues(g).energy


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


def trace_moments(g: Graph, max_power: int, square: np.ndarray | None = None) -> list[int]:
    """Exact Tr(A^k) for k = 0..max_power; equals the closed-walk counts.

    Tr(A^k) = <A^(k//2), A^(k-k//2)>, except Tr(A^4) = <A, A^3>: moment_summary checks
    that walk identity against a second formula, the codegree pair sum.  ``square``, if
    given, is the float64 product A @ A the caller formed already (moment_summary's
    codegree matrix); it serves as A^2 here.  Powers are float64 BLAS products,
    escalated to Python integers when an entry of the next product could reach 2^53
    (entries are walk counts, so every partial sum is bounded by the final entry).
    An entry of A^j counts walks, so it is at most D^(j-1) and the next product's
    entries at most D^j; while D^j < 2^53 that proves the product exact without a
    scan for the largest entry.  Row i of the sum for Tr(A^k) is (A^k)_ii <= D^k, or
    a tighter cap read off the two half powers (_inner).
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
    powers = [None, base] if square is None else [None, base, square]
    cap = max(1, max_degree)
    for j in range(len(powers) - 1, top):  # powers[j] = A^j; form A^(j+1)
        power = powers[j]
        if power.dtype != object and cap**j >= 2**53 and int(power.max(initial=0)) * cap >= 2**53:
            power, base = _exact(power), _exact(base)
        powers.append(power @ base)
    for k in range(2, max_power + 1):
        low = 1 if k == 4 else k // 2
        out.append(_inner(powers[low], powers[k - low], max_degree**k))
    return out
