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


def dense_adjacency(g: Graph, dtype: type = np.float64) -> np.ndarray:
    """The adjacency matrix as dtype, refused above the dense-kernel vertex cap."""
    check_order(g.n)
    return g.matrix.astype(dtype)


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix with int64 entries, refused above the vertex cap."""
    return dense_adjacency(g, np.int64)


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


# Word-size primes below 2^21, so n (p - 1)^2 < 2^53 for every n <= TRACE_MAX_VERTICES: a row
# of products of two residues sums exactly in float64.  All nine together pass the largest
# walk-count bound n D^k at the caps, 2048 * 2047^16 < 2^187 (tests check both facts).
_PRIMES = (2097143, 2097133, 2097131, 2097097, 2097091, 2097083, 2097047, 2097041, 2097031)


def _inner(x: np.ndarray, y: np.ndarray, row_cap: int) -> int | None:
    """Exact <x, y> of walk-count powers whose termwise products sum to at most row_cap per row.

    Where n row_cap misses the float64 tier, max(x) times the largest row sum of y also
    bounds every row.  The powers are float64 integers below 2^53 and n <= 2^11, so their
    row sums are exact in uint64.  None where a row could pass int64: such a trace is
    taken modulo primes (_modular_traces).
    """
    n = len(x)
    if n * row_cap >= 2**53:
        row_cap = min(row_cap, int(x.max()) * int(y.astype(np.uint64).sum(axis=1).max()))
    if n * row_cap < 2**53:  # every partial sum is an integer below 2^53
        return int(np.vdot(x, y))
    if row_cap < 2**63:
        return sum((x.astype(np.int64) * y.astype(np.int64)).sum(axis=1).tolist())
    return None


def _residues(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p for a float64 matrix of non-negative integers below 2^53, as float64.

    Through int64: np.fmod is exact too, but costs 35-90 ns an entry at these sizes
    against about 3 ns.
    """
    return (x.astype(np.int64) % p).astype(np.float64)


def _modular_traces(powers: list, pairs: list[tuple[int, int]], bound: int) -> list[int]:
    """<A^i, A^j> for each (i, j) in pairs, each at most bound, rebuilt by CRT from residues.

    powers[1:] are exact float64 powers A, A^2, ...; higher ones are formed modulo each
    prime p, reduced after each product (Dumas, Giorgi & Pernet, ACM TOMS 35(3), 2008).
    A product's entries stay below n p, and a row of an inner product below
    n (p - 1)^2 < 2^53, so every float64 sum is exact; each row sum is reduced mod p
    before the rows are added.  One prime at a time, so only its residues are held.
    """
    primes, product = [], 1
    for p in _PRIMES:
        if product > bound:
            break
        primes.append(p)
        product *= p
    used = {j for pair in pairs for j in pair}
    exact, top = len(powers) - 1, max(used)
    values, modulus = [0] * len(pairs), 1
    for p in primes:
        chain = [_residues(x, p) if j in used or j == exact else None for j, x in enumerate(powers)]
        while len(chain) <= top:
            chain.append(_residues(chain[-1] @ powers[1], p))
        # Garner's CRT: the value below modulus p that keeps every earlier residue.
        inverse = pow(modulus, -1, p)
        for t, (i, j) in enumerate(pairs):
            residue = int(_residues(np.einsum("ij,ij->i", chain[i], chain[j]), p).sum())
            values[t] += modulus * ((residue - values[t]) * inverse % p)
        modulus *= p
    return values


def trace_moments(g: Graph, max_power: int, square: np.ndarray | None = None) -> list[int]:
    """Exact Tr(A^k) for k = 0..max_power; equals the closed-walk counts.

    Tr(A^k) = <A^(k//2), A^(k-k//2)>, except Tr(A^4) = <A, A^3>: moment_summary checks
    that walk identity against a second formula, the codegree pair sum.  ``square``, if
    given, is the product A @ A the caller formed already (moment_summary's codegree
    matrix, float32 or float64); it serves as A^2 here.

    Each power is formed in the cheapest float arithmetic that is still exact.  An entry
    of A^j counts walks, so it is at most D^(j-1), and every term and partial sum of the
    next product is a non-negative integer no larger than that product's entry, at most
    D^j.  So A^(j+1) is formed in float32 while D^j < 2^24 (A^2 and A^3 always, since
    D <= 2047), and in float64 while D^j, or max(A^j) D, stays below 2^53; either product
    is exact under any blocking, FMA use or BLAS thread split.  Higher powers are formed
    modulo primes and their traces rebuilt by CRT (_modular_traces).  No inner product
    sums in float32: float32 powers are converted to float64 once.  Row i of the sum for
    Tr(A^k) is (A^k)_ii <= D^k, or a tighter cap read off the two half powers (_inner).
    """
    if max_power < 0:
        raise ValueError(f"power must be non-negative, got {max_power}")
    out = [g.n, 0][: max_power + 1]
    if max_power <= 1:
        return out
    if max_power > TRACE_MAX_POWER:
        raise CapExceededError(f"power {max_power} exceeds cap {TRACE_MAX_POWER}")
    base, single = dense_adjacency(g), dense_adjacency(g, np.float32)
    cap = max(1, max(g.degrees(), default=0))
    top = max((max_power + 1) // 2, 3 if max_power >= 4 else 1)  # A^3 serves Tr(A^4)
    powers = [None, base] if square is None else [None, base, square]
    for j in range(len(powers) - 1, top):  # powers[j] = A^j; form A^(j+1)
        power = powers[j]
        if cap**j < 2**24:
            powers.append(power.astype(np.float32, copy=False) @ single)
        elif cap**j < 2**53 or int(power.max(initial=0)) * cap < 2**53:
            powers[j] = power = power.astype(np.float64, copy=False)
            powers.append(power @ base)
        else:
            break
    powers = [None] + [x.astype(np.float64, copy=False) for x in powers[1 : top + 1]]
    pending = {}  # k: the half powers of a trace left to _modular_traces
    for k in range(2, max_power + 1):
        low, high = (1, 3) if k == 4 else (k // 2, k - k // 2)
        out.append(_inner(powers[low], powers[high], cap**k) if high < len(powers) else None)
        if out[k] is None:
            pending[k] = low, high
    if pending:
        traces = _modular_traces(powers, list(pending.values()), g.n * cap**max_power)
        for k, trace in zip(pending, traces):
            out[k] = trace
    return out
