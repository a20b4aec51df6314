"""The tangent-quartic family and the closed-form moment energy bound.

For 0 < r < 1 the even quartic

    P_r(x) = (r^2 (2r+1) + (3r^2+2r+1) x^2 - x^4) / (2r (r+1)^2)

touches y = x at x = r (tangentially) and at x = 1, and majorises |x| on
[-1, 1].  Dilating to [-D, D] and contracting against the spectral moments
(n, M2, M4) gives an upper bound on graph energy for every r; the optimal
tangency point has a closed form in the scaled moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .moments import MomentSummary, ScaledMoments

# Relative guard separating genuinely coincident scaled moments from rounding.
_DEGENERATE_GUARD = 1e-13
# Clamped tangency points sit just inside the open interval (0, 1).
_EDGE_MARGIN = 1e-9


class MajorizationError(ValueError):
    """A polynomial failed the majorisation check required for a sound bound."""


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


def dilate(p: EvenPolynomial, new_scale: float) -> EvenPolynomial:
    """Rescale a unit-interval polynomial to [-new_scale, new_scale].

    The dilation x -> new_scale * p(x / new_scale) preserves tangency to
    y = x and maps coefficient c[j] to c[j] * new_scale**(1 - 2j).
    """
    if p.scale != 1.0:
        raise ValueError("dilation starts from a unit-interval polynomial")
    if not (math.isfinite(new_scale) and new_scale > 0):
        raise ValueError(f"dilation scale must be positive, got {new_scale}")
    coeffs = tuple(c * new_scale ** (1 - 2 * j) for j, c in enumerate(p.coefficients))
    return EvenPolynomial(coeffs, float(new_scale))


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


def bound_from_polynomial(p: EvenPolynomial, summary: MomentSummary, direction: str) -> float:
    """Contract a verified quartic (or lower) majoriser against the moments.

    For direction "above" the result bounds the energy from above; "below"
    gives a lower bound.  Polynomials of degree > 4 carry moments this
    summary does not hold; route those through solve_bound_lp instead.
    """
    if len(p.coefficients) > 3:
        raise ValueError("degree above 4 needs higher moments; use solve_bound_lp")
    if abs(p.scale - summary.max_degree) > 1e-9 * max(1.0, summary.max_degree):
        raise ValueError(
            f"polynomial scale {p.scale} does not match max degree {summary.max_degree}"
        )
    check = verify_majorization(p, direction)
    if not check.ok:
        raise MajorizationError(
            f"majorisation ({direction}) fails: gap {check.worst_gap:.3e} at x={check.worst_x:.6g}"
        )
    cs = p.coefficients + (0.0,) * (3 - len(p.coefficients))
    return cs[0] * summary.n + cs[1] * summary.m2 + cs[2] * summary.m4


def bound_at_tangency(sm: ScaledMoments, r: float) -> float:
    """Energy bound from the tangent quartic at tangency point r."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"tangency point must lie strictly inside (0, 1), got {r}")
    den = 2.0 * r * (r + 1.0) ** 2
    return (
        -sm.m4_scaled
        + (3.0 * r * r + 2.0 * r + 1.0) * sm.m2_scaled
        + r * r * (2.0 * r + 1.0) * sm.m0_scaled
    ) / den


def optimal_tangency(sm: ScaledMoments) -> tuple[float, bool]:
    """The tangency point minimising the quartic bound, and whether it was clamped.

    The interior minimiser is sqrt((m2s - m4s) / (m0s - m2s)).  Degenerate
    triples are clamped into the open interval: when the scaled moments
    coincide (unions of single edges) the bound degenerates to m2_scaled and
    any point works; a vanishing numerator pushes the minimiser to 0, a
    vanishing denominator or a ratio >= 1 pushes it to 1.
    """
    a4, a2, a0 = sm.m4_scaled, sm.m2_scaled, sm.m0_scaled
    guard = _DEGENERATE_GUARD * max(1.0, a0)
    gap_low = a2 - a4
    gap_high = a0 - a2
    if gap_low <= guard:
        return (1.0, True) if gap_high <= guard else (_EDGE_MARGIN, True)
    if gap_high <= guard:
        return (1.0 - _EDGE_MARGIN, True)
    ratio = gap_low / gap_high
    if ratio >= 1.0:
        return (1.0 - _EDGE_MARGIN, True)
    return (math.sqrt(ratio), False)


def best_quartic_bound(sm: ScaledMoments) -> float:
    """The optimal tangent-quartic energy bound for one scaled-moment triple.

    Uses the closed form at the interior minimiser; clamped triples are
    evaluated at the clamp point, except the fully degenerate family where
    the infimum m2_scaled is exact (it equals the energy of a perfect
    matching) and is returned directly.
    """
    a4, a2, a0 = sm.m4_scaled, sm.m2_scaled, sm.m0_scaled
    r, clamped = optimal_tangency(sm)
    if clamped:
        if a2 - a4 <= _DEGENERATE_GUARD * max(1.0, a0):
            return a2
        return bound_at_tangency(sm, r)
    den = a4 - 2.0 * a2 + a0
    if abs(den) <= _DEGENERATE_GUARD * max(1.0, a0):
        # Cancellation territory; the parametric form is stable here.
        return bound_at_tangency(sm, r)
    cross = math.sqrt(a2 - a4) * math.sqrt(a0 - a2)
    return -(a2 * a2 + a2 * cross - a0 * (a4 + cross)) / den


def van_dam_bound(n: int, d: int) -> float:
    """Energy bound n (d + (d^2 - d) sqrt(d-1)) / (d^2 - d + 1) for d-regular graphs.

    Agrees with the optimal quartic bound on regular graphs without
    quadrilaterals, where the minimiser is sqrt(d-1)/d.
    """
    if d < 1:
        raise ValueError(f"degree must be at least 1, got {d}")
    if n < 2:
        raise ValueError(f"order must be at least 2, got {n}")
    return n * (d + (d * d - d) * math.sqrt(d - 1.0)) / (d * d - d + 1)
