"""The tangent-quartic family and the moment energy bound it gives.

For 0 < r < 1 the even quartic

    P_r(x) = (r^2 (2r+1) + (3r^2+2r+1) x^2 - x^4) / (2r (r+1)^2)

touches y = x at x = r (tangentially) and at x = 1, and majorises |x| on
[-1, 1].  Dilating to [-D, D] and contracting against the spectral moments
(n, M2, M4) gives an upper bound on graph energy for every r; bound_at_tangency
contracts in exact integers and rounds up once, so each bound is proved.  The
optimal tangency point and its clamps are decided on the exact integers
c0 = n D^2 - M2 and c1 = D^2 M2 - M4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .moments import MomentSummary, NoEdgesError

# Clamped tangency points sit just inside the open interval (0, 1).
_EDGE_MARGIN = 1e-9


@dataclass(frozen=True)
class EvenPolynomial:
    """An even polynomial sum(c[j] * x**(2j)) intended for use on [-scale, scale]."""

    coefficients: tuple[float, ...]
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("need at least a constant coefficient")
        if not all(math.isfinite(c) for c in self.coefficients):
            raise ValueError(f"non-finite coefficient in {self.coefficients}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    @property
    def degree(self) -> int:
        return 2 * (len(self.coefficients) - 1)

    def __call__(self, x: float) -> float:
        u = x * x
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * u + c
        return acc


def _ascending_coefficients(p: EvenPolynomial) -> np.ndarray:
    """Coefficients in x (not x^2), ascending, for numpy polynomial routines."""
    full = np.zeros(2 * (len(p.coefficients) - 1) + 1)
    for j, c in enumerate(p.coefficients):
        full[2 * j] = c
    return full


def tangent_quartic(r: float) -> EvenPolynomial:
    """The member of the tangent family touching y = x at r and at 1."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"tangency point must lie strictly inside (0, 1), got {r}")
    den = 2.0 * r * (r + 1.0) ** 2
    c0 = r * r * (2.0 * r + 1.0) / den
    c2 = (3.0 * r * r + 2.0 * r + 1.0) / den
    c4 = -1.0 / den
    return EvenPolynomial((c0, c2, c4), 1.0)


class MajorizationCheck(NamedTuple):
    ok: bool
    worst_gap: float
    worst_x: float


def _stationary_points(p: EvenPolynomial) -> list[float]:
    """Roots of P'(x) = 1 inside (0, scale): the critical points of P(x) - x."""
    der = np.polynomial.polynomial.polyder(_ascending_coefficients(p))
    der = der.copy()
    der[0] -= 1.0
    if not np.any(der[1:]):
        return []
    roots = np.polynomial.polynomial.polyroots(der)
    dder = np.polynomial.polynomial.polyder(der)
    out = []
    for z in roots:
        if abs(z.imag) > 1e-8 * max(1.0, abs(z)):
            continue
        x = float(z.real)
        # Two Newton steps against P'(x) - 1 sharpen np.roots output.
        for _ in range(2):
            fx = float(np.polynomial.polynomial.polyval(x, der))
            dfx = float(np.polynomial.polynomial.polyval(x, dder))
            if dfx != 0.0 and math.isfinite(fx):
                x -= fx / dfx
        if 0.0 < x < p.scale:
            out.append(x)
    return out


def verify_majorization(p: EvenPolynomial, direction: str) -> MajorizationCheck:
    """Check P(x) >= x ("above") or P(x) <= x ("below") on [0, scale].

    Evaluates on a uniform 5000-point grid including both endpoints, plus the
    stationary points of P(x) - x, where interior violations hide between grid
    nodes.  Gaps down to -1e-9 * scale are tolerated as rounding.
    """
    if direction not in ("above", "below"):
        raise ValueError(f"direction must be 'above' or 'below', got {direction!r}")
    sign = 1.0 if direction == "above" else -1.0
    xs = np.linspace(0.0, p.scale, 5000)
    vals = np.polynomial.polynomial.polyval(xs, _ascending_coefficients(p))
    gaps = sign * (vals - xs)
    idx = int(np.argmin(gaps))
    worst_gap = float(gaps[idx])
    worst_x = float(xs[idx])
    for x in _stationary_points(p):
        gap = sign * (p(x) - x)
        if gap < worst_gap:
            worst_gap = gap
            worst_x = x
    return MajorizationCheck(worst_gap >= -1e-9 * p.scale, worst_gap, worst_x)


def violation_minima(
    p: EvenPolynomial, direction: str, grid_points: int = 2048
) -> list[float]:
    """Interior x locations where the majorisation gap dips below tolerance.

    Collects the violating stationary points of P(x) - x plus violating local
    minima of the sampled gap, deduplicated.  Endpoints are excluded.  No
    bound calls it; polyopt imports it only because a benchmark tracer hooks
    the name.
    """
    if direction not in ("above", "below"):
        raise ValueError(f"direction must be 'above' or 'below', got {direction!r}")
    sign = 1.0 if direction == "above" else -1.0
    tol = -1e-9 * p.scale
    xs = np.linspace(0.0, p.scale, max(grid_points, 1000))
    gaps = sign * (np.polynomial.polynomial.polyval(xs, _ascending_coefficients(p)) - xs)
    candidates = []
    interior = np.nonzero(
        (gaps[1:-1] < tol) & (gaps[1:-1] <= gaps[:-2]) & (gaps[1:-1] <= gaps[2:])
    )[0]
    candidates.extend(float(xs[i + 1]) for i in interior)
    for x in _stationary_points(p):
        if sign * (p(x) - x) < tol:
            candidates.append(x)
    candidates.sort(key=lambda x: sign * (p(x) - x))
    out: list[float] = []
    for x in candidates:
        if all(abs(x - seen) > 1e-9 * p.scale for seen in out):
            out.append(x)
    return out[:8]


def optimal_tangency(s: MomentSummary) -> tuple[float, bool]:
    """The tangency point minimising the quartic bound, and whether it was clamped.

    The minimiser is r = sqrt(c1 / (D^2 c0)).  If c1 = 0 the spectrum lies in
    {0, ±D}, the bound is the infimum M2 / D and r is clamped to the margin, or
    to 1 if c0 = 0 too (unions of single edges); so is an r that rounds to 1.
    """
    c0, c1, _ = s.gaps
    if c1 == 0:
        return (1.0 if c0 == 0 else _EDGE_MARGIN), True
    r = math.sqrt(c1 / (s.max_degree**2 * c0)) if c0 else 1.0
    return (r, False) if r < 1.0 else (1.0 - _EDGE_MARGIN, True)


def round_outward(num: int, den: int, up: bool) -> float:
    """num / den for den > 0, rounded once to the float above it (up) or below it."""
    bound = num / den  # int / int is correctly rounded
    bn, bd = bound.as_integer_ratio()
    if (gap := bn * den - num * bd) and (gap < 0) == up:
        bound = math.nextafter(bound, math.inf if up else -math.inf)
    return bound


def bound_at_tangency(s: MomentSummary, r: float) -> float:
    """The tangent-quartic energy bound at tangency point r, exact in integers and rounded up once.

    With r = a / b, the dilated P_r against (n, M2, M4) is N / (2a (a+b)^2 D^3),
    N = a^2 (2a+b) n D^4 + b (3a^2+2ab+b^2) M2 D^2 - b^3 M4: a bound for every r
    in (0, 1).
    """
    if (d := s.max_degree) < 1:
        raise NoEdgesError("the quartic bound needs at least one edge")
    if not 0.0 < r < 1.0:
        raise ValueError(f"tangency point must lie strictly inside (0, 1), got {r}")
    a, b = r.as_integer_ratio()
    num = a * a * (2 * a + b) * s.n * d**4 + b * (3 * a * a + 2 * a * b + b * b) * s.m2 * d * d
    return round_outward(num - b**3 * s.m4, 2 * a * (a + b) ** 2 * d**3, True)


def best_quartic_bound(s: MomentSummary) -> float:
    """bound_at_tangency at optimal_tangency; if c1 = 0, the infimum M2 / D (the energy) rounded up."""
    if s.max_degree < 1:
        raise NoEdgesError("the quartic bound needs at least one edge")
    if s.gaps[1] == 0:
        return round_outward(s.m2, s.max_degree, True)
    return bound_at_tangency(s, optimal_tangency(s)[0])


def van_dam_bound(s: MomentSummary) -> float:
    """The bound of van Dam, Haemers and Koolen (2014) for a d-regular graph, proved and rounded up.

    It is best_quartic_bound of the moments with the 4-cycles taken out,
    M2 = nd and M4 = 2 zagreb - 2m = nd (2d - 1); only n, D, M2 and M4 enter it.
    """
    if s.n * s.max_degree != 2 * s.m:
        raise ValueError("the van Dam bound needs a regular graph")
    return best_quartic_bound(replace(s, quad_count=0, m4=2 * s.zagreb - 2 * s.m))
