"""Certified even-polynomial energy bounds of every even degree, by moment quadrature.

An even P >= |x| on [0, D] bounds the energy by sum_j c[2j] * M[2j] (P <= |x|
gives a lower bound).  In u = x^2 / D^2 the best P of degree 2k interpolates
sqrt(u) at the nodes of a principal representation of M0, M2, ..., M2k
(Markov-Krein theory), a quadrature rule of the spectral measure mu:

- k odd: upper bound Gauss ((k+1)/2 nodes), lower bound Lobatto (0, 1 and
  (k-1)/2 interior nodes);
- k even: upper bound right Radau (1 and k/2 interior nodes), lower bound
  left Radau (0 and k/2 interior nodes).

Interior nodes are the Gauss nodes of mu, u mu, (1-u) mu or u(1-u) mu, whose
moments in t = x^2 units are integers.  Integer Bareiss elimination decides the
rank of their Hankel matrix exactly; a singular one (moments on the boundary
of the moment space, where the bound is the energy) gives fewer nodes.  A
rank-1 Jacobi matrix is read directly, its one entry being its eigenvalue.  The
certificate is the Hermite interpolant of sqrt: value and slope at interior
nodes, value only at 0 and 1.  The derivatives of sqrt alternate in sign, so
the Hermite remainder sqrt^(N)(xi) / N! * prod(u - z_i) takes its sign from the
end nodes (interior ones are doubled), which also fix the parity of N: Gauss and
right Radau give P >= |x|, Lobatto and left Radau P <= |x|, for any nodes in
(0, 1].  So nodes move to where sqrt is exact and the certificate is built
exactly: proved, not checked.  An upper-bound node at exactly 0 (an infimum no
polynomial attains, as on cycle:4) moves to NODE_FLOOR.

Arithmetic is in integers over one shared denominator.  With s_i = r_i / q (q the
largest power-of-two denominator) the points in w = q^2 u are w_i = r_i^2, and
delta = prod_{a<b} (r_a + r_b) > 0 times each divided difference of sqrt there is
an integer: f[r_0^2, ..., r_n^2] prod_{a<b} (r_b^2 - r_a^2) is alternating in r
with integer coefficients, so the Vandermonde prod (r_b - r_a) divides it, leaving
f prod (r_a + r_b) in Z[r] (confluent points by continuity).  So every division
is exact, and checked, and each float is one correctly rounded int / int.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .graphs import Graph
from .moments import NoEdgesError, degree_stats
from .quartic import EvenPolynomial, round_outward
from .quartic import verify_majorization, violation_minima  # noqa: F401  (a tracer hooks these)
from .spectral import TRACE_MAX_POWER, trace_moments

MAX_LP_DEGREE = TRACE_MAX_POWER  # the degree-k bound reads Tr(A^k)
# Interior nodes below this u move up to it: a node at 0 needs an infinite slope.
NODE_FLOOR = 1e-12

_FEAS_TOL = 1e-8
_PIVOT_TOL = 1e-11
_COST_TOL = 1e-9
# Ratios within _RATIO_TOL of the minimum tie; a pivot lowering the objective by
# at most _RATIO_TOL relative is degenerate.
_RATIO_TOL = 1e-12
_BLAND_AFTER = 50


class LpInfeasibleError(RuntimeError):
    """simplex_standard_form exceeded its pivot budget."""


# Unused by the bounds; kept, with its tests, because a benchmark tracer hooks this name.
def simplex_standard_form(
    a, b, c, max_iter: int = 50000
) -> tuple[np.ndarray | None, float | None, np.ndarray | None, str]:
    """Solve min c.x s.t. a @ x = b, x >= 0: two-phase tableau, Dantzig pricing,
    Bland's rule after _BLAND_AFTER degenerate pivots.  Returns (x, objective,
    duals, status), status "optimal", "infeasible" or "unbounded"; x and the
    equality multipliers duals are None unless optimal."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    mrows, nvars = a.shape
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    # Columns: structural variables, then one artificial per row, then rhs.
    # The last row holds reduced costs; its rhs cell is minus the objective.
    tab = np.zeros((mrows + 1, nvars + mrows + 1))
    tab[:mrows, :nvars] = a
    tab[:mrows, nvars:-1] = np.eye(mrows)
    tab[:mrows, -1] = b
    basis = np.arange(nvars, nvars + mrows)

    def pivot(row: int, col: int) -> None:
        tab[row, :] /= tab[row, col]
        other = tab[:, col].copy()
        other[row] = 0.0
        tab[:, :] -= np.outer(other, tab[row, :])
        basis[row] = col

    def run(eligible: int) -> str:
        costs = tab[-1, :eligible]
        rhs = tab[:mrows, -1]
        degenerate = 0
        for _ in range(max_iter):
            if degenerate < _BLAND_AFTER:
                col = int(np.argmin(costs))
                if costs[col] >= -_COST_TOL:
                    return "optimal"
            else:
                improving = costs < -_COST_TOL
                col = int(np.argmax(improving))
                if not improving[col]:
                    return "optimal"
            column = tab[:mrows, col]
            rows = np.flatnonzero(column > _PIVOT_TOL)
            if rows.size == 0:
                return "unbounded"
            ratios = rhs[rows] / column[rows]
            best = ratios.min()
            tied = rows[ratios <= best + _RATIO_TOL]
            row = int(tied[np.argmin(basis[tied])])
            before = tab[-1, -1]
            pivot(row, col)
            # The cell holds minus the objective, so a pivot that moves raises it.
            moved = tab[-1, -1] - before > _RATIO_TOL * max(1.0, abs(before))
            degenerate = 0 if moved else degenerate + 1
        raise LpInfeasibleError(f"simplex exceeded {max_iter} pivots")

    # Phase 1: minimise the artificial sum starting from the identity basis.
    tab[-1, :nvars] = -a.sum(axis=0)
    tab[-1, -1] = -b.sum()
    run(nvars + mrows)
    if -tab[-1, -1] > _FEAS_TOL * max(1.0, float(np.abs(b).sum())):
        return None, None, None, "infeasible"

    # Drive leftover artificials out of the basis where a structural pivot exists;
    # rows without one are redundant constraints and keep a zero-level artificial.
    for i in range(mrows):
        if basis[i] >= nvars:
            for j in range(nvars):
                if abs(tab[i, j]) > 1e-9:
                    pivot(i, j)
                    break

    # Phase 2: rebuild the reduced-cost row for the real objective.
    cb = np.array([c[j] if j < nvars else 0.0 for j in basis])
    tab[-1, :] = 0.0
    tab[-1, :nvars] = c
    tab[-1, :] -= cb @ tab[:mrows, :]
    status = run(nvars)
    if status != "optimal":
        return None, None, None, status

    x = np.zeros(nvars)
    for i, j in enumerate(basis):
        if j < nvars:
            x[j] = tab[i, -1]
    objective = -float(tab[-1, -1])
    cb = np.array([c[j] if j < nvars else 0.0 for j in basis])
    duals = cb @ tab[:mrows, nvars:-1]
    duals[flip] *= -1.0
    return x, objective, duals, "optimal"


@dataclass(frozen=True)
class LpProblem:
    """One bound problem: the exact even walk counts M0, M2, ..., M_degree, the
    scale D >= every |eigenvalue|, and direction "above" (a majoriser, upper
    bound) or "below" (a minoriser, lower bound)."""

    degree: int
    moments: tuple[int, ...]
    scale: float
    direction: str

    def __post_init__(self) -> None:
        if self.degree < 0 or self.degree % 2 or self.degree > MAX_LP_DEGREE:
            raise ValueError(f"degree must be even in 0..{MAX_LP_DEGREE}, got {self.degree}")
        k = self.degree // 2
        if len(self.moments) != k + 1:
            raise ValueError(f"need {k + 1} even moments for degree {self.degree}")
        if any(mj < 0 for mj in self.moments):
            raise ValueError("moments are walk counts and cannot be negative")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.direction not in ("above", "below"):
            raise ValueError(f"direction must be 'above' or 'below', got {self.direction!r}")


@dataclass(frozen=True)
class LpSolution:
    """The exact contraction of an exact polynomial, rounded outward, so always certified,
    and that polynomial rounded to float.  Every solution is optimal, certified, one round."""

    polynomial: EvenPolynomial
    objective: float
    status: ClassVar[str] = "optimal"
    certified: ClassVar[bool] = True
    rounds: ClassVar[int] = 1


def lp_problem(g: Graph, degree: int, direction: str) -> LpProblem:
    """Assemble the bound problem for one graph from its exact moments."""
    if degree < 0 or degree % 2 or degree > MAX_LP_DEGREE:
        raise ValueError(f"degree must be even in 0..{MAX_LP_DEGREE}, got {degree}")
    walks = trace_moments(g, degree)
    return LpProblem(degree, tuple(walks[0 : degree + 1 : 2]), _bound_scale(g), direction)


def _bound_scale(g: Graph) -> float:
    """The maximum degree D, which bounds every |eigenvalue|."""
    st = degree_stats(g)
    if st.max_degree < 1:
        raise NoEdgesError("polynomial bounds need at least one edge")
    return float(st.max_degree)


def _gauss_nodes(moments: list[int]) -> list[float]:
    """Gauss nodes, at most m of them, of a measure from its first 2m integer moments.

    Bareiss elimination on the m-by-(m+1) Hankel matrix leaves the leading
    minors Delta_j on the diagonal.  A measure with r atoms has Delta_j > 0 for
    j <= r and 0 beyond, so the first zero pivot gives the exact rank.  The
    Jacobi matrix (Golub-Welsch in LDL^T form) has alpha_j = a[j][j+1] /
    Delta_{j+1} - a[j-1][j] / Delta_j and beta_j^2 = Delta_j Delta_{j+2} /
    Delta_{j+1}^2, each rounded once.  A 1-by-1 Jacobi matrix is its own node.
    """
    m = len(moments) // 2
    a = [[moments[i + j] for j in range(m + 1)] for i in range(m)]
    minors = [1]
    for j in range(m):
        pivot = a[j][j]
        if pivot == 0:
            break
        for i in range(j + 1, m):
            for col in range(j + 1, m + 1):
                a[i][col] = (pivot * a[i][col] - a[i][j] * a[j][col]) // minors[-1]
        minors.append(pivot)
    r = len(minors) - 1
    alpha = [a[0][1] / minors[1]] if r else []
    for j in range(1, r):
        num = a[j][j + 1] * minors[j] - a[j - 1][j] * minors[j + 1]
        alpha.append(num / (minors[j + 1] * minors[j]))
    if r < 2:
        return alpha
    jacobi = np.zeros((r, r))
    jacobi.flat[:: r + 1] = alpha
    beta = [math.sqrt(minors[j] * minors[j + 2] / minors[j + 1] ** 2) for j in range(r - 1)]
    jacobi.flat[1 :: r + 1] = jacobi.flat[r :: r + 1] = beta
    return np.linalg.eigvalsh(jacobi).tolist()


def _principal_nodes(problem: LpProblem) -> tuple[list[float], tuple[float, ...]]:
    """Interior nodes in u, and the fixed end nodes, of the extremal rule."""
    mom = [int(m) for m in problem.moments]
    k = len(mom) - 1
    # T = scale^2 = num / den exactly; the weights T - t are scaled by den.
    num, den = (v * v for v in float(problem.scale).as_integer_ratio())
    above = problem.direction == "above"
    if k % 2 and above:  # Gauss
        weighted, ends = mom, ()
    elif k % 2:  # Lobatto: t (T - t) mu
        weighted, ends = [num * mom[j + 1] - den * mom[j + 2] for j in range(k - 1)], (0.0, 1.0)
    elif above:  # right Radau: (T - t) mu
        weighted, ends = [num * mom[j] - den * mom[j + 1] for j in range(k)], (1.0,)
    else:  # left Radau: t mu
        weighted, ends = mom[1:], (0.0,)
    t_max = problem.scale**2
    return [max(t / t_max, NODE_FLOOR) for t in _gauss_nodes(weighted)], ends


def _exact(num: int, den: int) -> int:
    """num / den, an integer by the argument in the module docstring."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError("a certificate division is not exact")
    return quotient


def _sqrt_interpolant(nodes: list[float], ends: tuple[float, ...], k: int) -> tuple[list[int], int, int]:
    """Integers (p, q, delta) with sum_j p[j] q^(2j-1) u^j / delta, padded to degree k,
    the Hermite interpolant of sqrt: value and slope at each node, value only at each
    end.  Each point moves to s^2 with s = sqrt(u) rounded, where sqrt is exactly s; a
    point met more than twice (two nodes, or a node and an end, that round together)
    keeps two conditions, which leaves the sign of the remainder as it was."""
    met = sorted(map(math.sqrt, [*ends, *nodes, *nodes]))
    ratios = [s.as_integer_ratio() for i, s in enumerate(met) if i < 2 or s != met[i - 2]]
    q = max(d for _, d in ratios)
    r = [num * (q // d) for num, d in ratios]
    w = [ri * ri for ri in r]
    n = len(r)
    delta = math.prod(a + b for i, a in enumerate(r) for b in r[i + 1 :])
    # newton[i] becomes delta * f[w_0, ..., w_i]; delta * f[w_a, w_b] = delta / (r_a + r_b),
    # also the slope delta / (2 r_a) when a = b.
    newton = [delta * r[0]] + [_exact(delta, r[i - 1] + r[i]) for i in range(1, n)]
    for order in range(2, n):
        for i in range(n - 1, order - 1, -1):
            newton[i] = _exact(newton[i] - newton[i - 1], w[i] - w[i - order])
    # Horner from the top Newton term: p <- newton[i] + (u - w_i) p, one degree at a time.
    p = [newton[-1]] + [0] * k
    for i in range(n - 2, -1, -1):
        wi = w[i]
        for j in range(n - 1 - i, 0, -1):
            p[j] = p[j - 1] - wi * p[j]
        p[0] = newton[i] - wi * p[0]
    return p, q, delta


def solve_bound_lp(problem: LpProblem) -> LpSolution:
    """The optimal bound over even polynomials of the given degree, proved exactly
    and rounded outward once."""
    k, (sn, sd) = problem.degree // 2, float(problem.scale).as_integer_ratio()
    p, q, delta = _sqrt_interpolant(*_principal_nodes(problem), k)
    # Coefficient j of x^2j is p[j] (q sd / sn)^(2j-1) / delta = nums[j] / den.
    nums = [pj * (q * sd) ** (2 * j) * sn ** (2 * (k - j) + 1) for j, pj in enumerate(p)]
    den = delta * q * sd * sn ** (2 * k)
    numerator = sum(c * int(m) for c, m in zip(nums, problem.moments))
    bound = round_outward(numerator, den, problem.direction == "above")
    poly = EvenPolynomial(tuple(c / den for c in nums), problem.scale)
    return LpSolution(poly, bound)


@dataclass(frozen=True)
class SweepEntry:
    degree: int
    upper: LpSolution
    lower: LpSolution


def bound_sweep(g: Graph, max_degree: int) -> tuple[SweepEntry, ...]:
    """Certified upper and lower bounds for every even degree 2..max_degree.

    Each entry keeps the previous degree's polynomial, which lives in every
    higher-degree space, when the fresh solve is worse, so the bounds are
    monotone by construction.
    """
    if max_degree < 2 or max_degree % 2 or max_degree > MAX_LP_DEGREE:
        raise ValueError(f"max degree must be even in 2..{MAX_LP_DEGREE}, got {max_degree}")
    scale = _bound_scale(g)
    walks = trace_moments(g, max_degree)
    entries: list[SweepEntry] = []
    for degree in range(2, max_degree + 1, 2):
        moments = tuple(walks[0 : degree + 1 : 2])
        upper = solve_bound_lp(LpProblem(degree, moments, scale, "above"))
        lower = solve_bound_lp(LpProblem(degree, moments, scale, "below"))
        if entries:
            prev = entries[-1]
            if prev.upper.objective < upper.objective:
                upper = prev.upper
            if prev.lower.objective > lower.objective:
                lower = prev.lower
        entries.append(SweepEntry(degree, upper, lower))
    return tuple(entries)
