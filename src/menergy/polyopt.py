"""LP optimisation of even-polynomial energy bounds of arbitrary even degree.

An even polynomial P majorising |x| on [0, D] gives the energy bound
sum_j c[2j] * M[2j]; minorising gives a lower bound.  Both are linear
programs in the coefficients once the majorisation constraint is sampled on
a finite grid.  Everything is solved in dimensionless form: with u = x / D
and y[j] = c[2j] * D^(2j - 1), the constraints become sum_j y[j] u^(2j) >= u
on [0, 1] and the objective sum_j y[j] nu[j] with nu[j] = M[2j] / D^(2j-1).

Grid sampling alone can let the optimum dip below |x| between nodes, so
solutions are re-verified on the continuous interval and worst violators are
added as cutting planes until the check passes; only then is a solution
certified.

The solver is a dense two-phase tableau simplex.  It prices by Dantzig's
rule and falls back on Bland's rule during long runs of degenerate pivots,
the only place where the simplex can cycle.  The coefficient problem has few
variables but many constraints, so it is solved through its dual (one
variable per sampled point, one equation per coefficient) and the primal
coefficients are read off the equality multipliers at optimality.
Tangential contact with |x| makes the refined vertices ill-conditioned, so
recovery failures fall back to a direct primal solve, and rounds that still
miss certification keep a constant-shifted certified copy as the answer of
last resort.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graphs import Graph
from .moments import NoEdgesError, degree_stats
from .quartic import (
    EvenPolynomial,
    MajorizationCheck,
    verify_majorization,
    violation_minima,
)
from .spectral import trace_moments

MAX_CUT_ROUNDS = 50
MAX_LP_DEGREE = 16
DEFAULT_COEFFICIENT_CAP = 1e6

_FEAS_TOL = 1e-8
_PIVOT_TOL = 1e-11
_COST_TOL = 1e-9
# Ratios within _RATIO_TOL of the minimum tie in the ratio test, and a pivot
# that lowers the objective by at most _RATIO_TOL relative is degenerate.
# After _BLAND_AFTER degenerate pivots in a row, pricing switches to Bland's
# rule until the next pivot that lowers the objective.
_RATIO_TOL = 1e-12
_BLAND_AFTER = 50


class LpConvergenceError(RuntimeError):
    """Cutting-plane rounds were exhausted without a certified solution."""


class LpInfeasibleError(RuntimeError):
    """The LP reported infeasible or unbounded; valid inputs cannot do this."""


def simplex_standard_form(
    a, b, c, max_iter: int = 50000
) -> tuple[np.ndarray | None, float | None, np.ndarray | None, str]:
    """Solve min c.x subject to a @ x = b, x >= 0 by the two-phase tableau method.

    The entering column has the most negative reduced cost (Dantzig's rule,
    ties to the lowest index).  The leaving row has the minimum ratio, ties
    to the smallest basic index.  After _BLAND_AFTER consecutive degenerate
    pivots the entering column becomes the lowest-index one with negative
    reduced cost (Bland's rule) until a pivot lowers the objective again.
    No pivot raises the objective, so a cycle, which comes back to its
    starting basis, is made of pivots that leave the objective where it was;
    all count as degenerate, so once _BLAND_AFTER of them have passed the
    run is under Bland's rule, which cannot cycle (Bland 1977).  That
    argument holds in exact arithmetic; in floating point max_iter still
    bounds the run.  Returns (x, objective, duals, status) with status one
    of "optimal", "infeasible", "unbounded"; duals are the equality
    multipliers of the optimal basis (x and duals are None unless optimal).
    """
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


def _minimize_over_halfplanes(
    cost: np.ndarray, gmat: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray | None, float]:
    """min cost.y over {y : gmat @ y >= h} with y free.

    Solved through the dual max h.p s.t. gmat.T @ p = cost, p >= 0, which is
    already in standard form; the primal y comes back as the negated equality
    multipliers.  Requires the primal to be feasible and bounded, which the
    polynomial problems guarantee by construction.

    When the optimal face has several vertices this returns an arbitrary one;
    use _minimal_norm_refit afterwards if a small solution matters.  At
    vertices too degenerate for any recovery the point comes back as None
    while the optimal value, which the tableau gets right regardless, is
    still returned.
    """
    cost = np.asarray(cost, float)
    gmat = np.asarray(gmat, float)
    h = np.asarray(h, float)
    # Equilibrate before building the tableau.  Rescaling a primal inequality
    # row leaves the feasible set alone, and rescaling the cost only rescales
    # the dual vertex, so y is unchanged either way; without this the
    # coefficient-cap rows (|h| ~ cap) drown the fixed pivot tolerances.
    row_scale = np.maximum(np.abs(gmat).max(axis=1), np.abs(h))
    row_scale = np.maximum(row_scale, 1e-12)
    cost_scale = max(1.0, float(np.abs(cost).max()))
    gs = gmat / row_scale[:, None]
    hs = h / row_scale
    p, obj, duals, status = simplex_standard_form(gs.T, cost / cost_scale, -hs)
    if status != "optimal":
        return _solve_primal_direct(cost, gmat, h)
    y = -duals
    value = -obj * cost_scale
    if _relative_residual(gmat, h, y) < -1e-6 or abs(float(cost @ y) - value) > 1e-6 * max(
        1.0, abs(value)
    ):
        # Degenerate bases can scramble multiplier recovery; rebuild y from
        # the constraints the dual marks as tight.
        tight = p > 1e-9
        if np.count_nonzero(tight) >= len(y):
            sol, *_ = np.linalg.lstsq(gs[tight], hs[tight], rcond=None)
            y = sol
        if _relative_residual(gmat, h, y) < -1e-6:
            # Clustered touch points make the optimal vertex itself
            # ill-conditioned; no recovery from the dual basis can work then.
            direct, direct_value = _solve_primal_direct(cost, gmat, h)
            return direct, (value if direct is None else direct_value)
        value = float(cost @ y)
    return y, value


def _solve_primal_direct(
    cost: np.ndarray, gmat: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray | None, float]:
    """min cost.y over {y : gmat @ y >= h}, solved without the dual detour.

    Splits y into positive and negative parts and adds one slack and one
    artificial per row, so it is the slow route; but y is a tableau variable
    here, not a multiplier, which keeps it usable at degenerate vertices.
    The point still comes back None when even the direct tableau drifts.
    """
    nvars = gmat.shape[1]
    nrows = gmat.shape[0]
    row_scale = np.maximum(np.abs(gmat).max(axis=1), np.abs(h))
    row_scale = np.maximum(row_scale, 1e-12)
    cost_scale = max(1.0, float(np.abs(cost).max()))
    gs = gmat / row_scale[:, None]
    hs = h / row_scale
    a = np.hstack([gs, -gs, -np.eye(nrows)])
    c_lp = np.concatenate([cost, -cost, np.zeros(nrows)]) / cost_scale
    x, obj, _, status = simplex_standard_form(a, hs, c_lp)
    if status == "infeasible":
        raise LpInfeasibleError(
            "no polynomial satisfies the constraints; the coefficient cap is too tight"
        )
    if status != "optimal":
        raise LpInfeasibleError(f"bound LP solve returned {status}; valid inputs cannot do this")
    y = x[:nvars] - x[nvars : 2 * nvars]
    value = float(cost @ y)
    if _relative_residual(gmat, h, y) < -1e-6:
        return None, obj * cost_scale
    return y, value


def _relative_residual(gmat: np.ndarray, h: np.ndarray, y: np.ndarray) -> float:
    """Worst constraint violation of gmat @ y >= h, scaled per row."""
    return float(np.min((gmat @ y - h) / np.maximum(1.0, np.abs(h))))


def _minimal_norm_refit(
    cost: np.ndarray, gmat: np.ndarray, h: np.ndarray, value: float
) -> np.ndarray | None:
    """Smallest-coefficient point of the near-optimal slab {cost.y <= value + eps}.

    The bound LPs often have whole optimal faces, and vertices on the
    coefficient cap evaluate with catastrophic cancellation between grid
    nodes.  Re-minimising sum |y_j| subject to near-optimality lands on the
    tame vertex instead.  Returns None if no refit satisfies the constraints.
    """
    nvars = gmat.shape[1]
    eye = np.eye(nvars)
    cost = np.asarray(cost, float)
    stacked = np.vstack(
        [
            np.hstack([gmat, np.zeros_like(gmat)]),
            np.hstack([-cost[None, :], np.zeros((1, nvars))]),
            np.hstack([-eye, eye]),
            np.hstack([eye, eye]),
        ]
    )
    norm_cost = np.concatenate([np.zeros(nvars), np.ones(nvars)])
    eps = 1e-8 * (1.0 + abs(value))
    for _ in range(4):
        rhs = np.concatenate([h, [-(value + eps)], np.zeros(2 * nvars)])
        try:
            z, _ = _minimize_over_halfplanes(norm_cost, stacked, rhs)
        except LpInfeasibleError:
            eps *= 100.0
            continue
        if z is None:
            eps *= 100.0
            continue
        y = z[:nvars]
        if _relative_residual(gmat, h, y) >= -1e-7:
            return y
        eps *= 100.0
    return None


@dataclass(frozen=True)
class LpProblem:
    """A sampled even-polynomial bound problem.

    moments holds the exact even walk counts (M0, M2, ..., M_degree); grid is
    the constraint sample in [0, scale] including both endpoints; direction
    "above" asks for a majoriser (upper bound, minimised), "below" for a
    minoriser (lower bound, maximised).  coefficient_cap bounds
    |c[2j]| * scale^(2j) to keep the problem finite when the true optimum
    runs away (the cap binding is reported, not hidden).
    """

    degree: int
    moments: tuple[int, ...]
    scale: float
    grid: tuple[float, ...]
    direction: str
    coefficient_cap: float = DEFAULT_COEFFICIENT_CAP

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
        if len(self.grid) < max(2, 64 * k):
            raise ValueError(f"grid too small: {len(self.grid)} points for degree {self.degree}")
        if self.grid[0] != 0.0 or abs(self.grid[-1] - self.scale) > 1e-12 * self.scale:
            raise ValueError("grid must run from 0 to scale inclusive")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")
        if not self.coefficient_cap > 0:
            raise ValueError("coefficient cap must be positive")


@dataclass(frozen=True)
class LpSolution:
    """A certified solution: the polynomial, its moment contraction, and status.

    status "capped" flags that a coefficient magnitude cap was active, so the
    objective is conservative rather than optimal over all polynomials.
    certified is True only after the continuous majorisation re-check passed.
    """

    polynomial: EvenPolynomial
    objective: float
    status: str
    certified: bool
    rounds: int


def lp_problem(
    g: Graph,
    degree: int,
    direction: str,
    grid_size: int | None = None,
    coefficient_cap: float = DEFAULT_COEFFICIENT_CAP,
) -> LpProblem:
    """Assemble the LP for one graph: exact moments plus a Chebyshev grid."""
    if degree < 0 or degree % 2 or degree > MAX_LP_DEGREE:
        raise ValueError(f"degree must be even in 0..{MAX_LP_DEGREE}, got {degree}")
    scale = _bound_scale(g)
    walks = trace_moments(g, degree)
    return _sampled_problem(walks, scale, degree, direction, grid_size, coefficient_cap)


def _bound_scale(g: Graph) -> float:
    """The maximum degree D, which bounds every |eigenvalue|."""
    st = degree_stats(g)
    if st.max_degree < 1:
        raise NoEdgesError("polynomial bounds need at least one edge")
    return float(st.max_degree)


def _sampled_problem(
    walks: list[int],
    scale: float,
    degree: int,
    direction: str,
    grid_size: int | None,
    coefficient_cap: float,
) -> LpProblem:
    """The LP from the walk counts Tr(A^0..A^degree) or longer, on a Chebyshev grid.

    Chebyshev-Lobatto nodes crowd the interval ends, where polynomial
    majorisers of |x| are hardest to pin down.
    """
    k = degree // 2
    npts = grid_size if grid_size is not None else max(128 * k, 33)
    if npts < max(2, 64 * k):
        raise ValueError(f"grid_size {npts} too small for degree {degree}")
    i = np.arange(npts)
    grid = scale * (1.0 - np.cos(np.pi * i / (npts - 1))) / 2.0
    grid[0] = 0.0
    grid[-1] = scale
    moments = tuple(walks[0 : degree + 1 : 2])
    return LpProblem(degree, moments, scale, tuple(float(x) for x in grid), direction, coefficient_cap)


def _even_cheb_to_monomial(k: int) -> np.ndarray:
    """Matrix sending even-Chebyshev coefficients to even monomial coefficients.

    Column j holds the coefficients of u^0, u^2, ..., u^2k in T_{2j}(u).  The
    entries are exact small integers, so the change of basis is lossless.
    """
    basis = np.zeros((k + 1, k + 1))
    for j in range(k + 1):
        e = np.zeros(2 * j + 1)
        e[2 * j] = 1.0
        mono = np.polynomial.chebyshev.cheb2poly(e)
        basis[: j + 1, j] = mono[::2]
    return basis


def solve_bound_lp(problem: LpProblem) -> LpSolution:
    """Optimise the bound over even polynomials of the given degree.

    Runs the cutting-plane loop: solve on the current sample, re-verify the
    polynomial on the continuous interval, and append the violating dips as
    new constraints until certification or the round cap.  The simplex works
    in the even-Chebyshev basis, whose constraint entries stay in [-1, 1]
    where the plain power basis is numerically hopeless from degree 12 or so.
    """
    k = problem.degree // 2
    scale = problem.scale
    nu = np.array([problem.moments[j] / scale ** (2 * j - 1) for j in range(k + 1)])
    cap = problem.coefficient_cap / scale
    upoints = sorted(x / scale for x in problem.grid)
    above = problem.direction == "above"
    cheb = _even_cheb_to_monomial(k)
    box = np.vstack([cheb, -cheb])
    box_rhs = np.full(2 * (k + 1), -cap)
    if k >= 2:
        # The quartic theory says the binding contact sits at
        # sqrt((nu1 - nu2) / (nu0 - nu1)) when that is interior; seeding it
        # spares the cutting loop the first few rounds.
        gap_low = nu[1] - nu[2]
        gap_high = nu[0] - nu[1]
        if gap_high > 0.0 and 0.0 < gap_low < gap_high:
            seed = float(np.sqrt(gap_low / gap_high))
            if all(abs(seed - x) > 1e-12 for x in upoints):
                upoints.append(seed)
                upoints.sort()

    best: LpSolution | None = None
    for round_no in range(1, MAX_CUT_ROUNDS + 1):
        upoints = _dedupe_grid(upoints)
        u = np.array(upoints)
        tvals = np.polynomial.chebyshev.chebvander(u, 2 * k)[:, ::2]
        if above:
            gmat = np.vstack([tvals, box])
            h = np.concatenate([u, box_rhs])
            cost = cheb.T @ nu
        else:
            gmat = np.vstack([-tvals, box])
            h = np.concatenate([-u, box_rhs])
            cost = -(cheb.T @ nu)
        try:
            z, raw = _minimize_over_halfplanes(cost, gmat, h)
            refit = _minimal_norm_refit(cost, gmat, h, raw)
        except LpInfeasibleError:
            # On the pristine first grid this is real (a coefficient cap too
            # tight to reach |x|), so report it.  After cut refinement the
            # clustered rows can wreck the tableau numerically; then fall
            # back on the best certified polynomial collected so far.
            if round_no == 1:
                raise
            break
        if refit is not None:
            z = refit
        if z is None:
            # The optimal value is known but no usable point survived; the
            # certified candidates gathered so far are all there is.
            break
        y = cheb @ z
        coeffs = tuple(float(y[j]) * scale ** (1 - 2 * j) for j in range(k + 1))
        poly = EvenPolynomial(coeffs, scale)
        check = verify_majorization(
            poly, problem.direction, grid_points=max(10 * len(problem.grid), 1000)
        )
        capped = bool(np.any(np.abs(y) >= cap * (1.0 - 1e-6)))
        if check.ok:
            value = _contract(problem.moments, poly)
            return LpSolution(poly, value, "capped" if capped else "optimal", True, round_no)
        shifted = _shift_certified(poly, check, problem)
        if shifted is not None:
            value = _contract(problem.moments, shifted)
            improved = best is None or (
                value < best.objective if above else value > best.objective
            )
            if improved:
                best = LpSolution(
                    shifted, value, "capped" if capped else "optimal", True, round_no
                )
        cuts = violation_minima(
            poly, problem.direction, grid_points=max(10 * len(problem.grid), 1000)
        )
        if not cuts:
            cuts = [check.worst_x]
        for cut in cuts:
            for extra in _cut_points(upoints, cut / scale):
                upoints.append(extra)
        upoints.sort()
    if best is not None:
        return best
    raise LpConvergenceError(
        f"no certified solution after {MAX_CUT_ROUNDS} cutting-plane rounds "
        f"(degree {problem.degree}, direction {problem.direction})"
    )


def _contract(moments: tuple[int, ...], poly: EvenPolynomial) -> float:
    """Pair the polynomial's coefficients with the even walk counts."""
    return float(sum(c * int(m) for c, m in zip(poly.coefficients, moments)))


def _shift_certified(
    poly: EvenPolynomial, check: MajorizationCheck, problem: LpProblem
) -> EvenPolynomial | None:
    """Move the constant coefficient past the worst violation and re-verify.

    A near-optimal polynomial with a small gap on the wrong side is still a
    bound after shifting by that gap, at the price of gap * n in the
    objective; this is the safety net for rounds whose LP vertex cannot be
    resolved numerically.  Gaps beyond a per-mille of the scale mean the
    round was junk rather than noisy, so those are not worth keeping.
    """
    slack = -check.worst_gap + 1e-12 * problem.scale
    if not 0.0 < slack < 1e-3 * problem.scale:
        return None
    sign = 1.0 if problem.direction == "above" else -1.0
    coeffs = (poly.coefficients[0] + sign * slack,) + poly.coefficients[1:]
    shifted = EvenPolynomial(coeffs, poly.scale)
    recheck = verify_majorization(
        shifted, problem.direction, grid_points=max(10 * len(problem.grid), 1000)
    )
    return shifted if recheck.ok else None


_MIN_CUT_SPACING = 1e-9


def _dedupe_grid(upoints: list[float]) -> list[float]:
    """Sorted sample at _MIN_CUT_SPACING resolution with the right endpoint kept."""
    end = max(upoints)
    kept: list[float] = []
    for x in sorted(upoints):
        if not kept or x - kept[-1] >= _MIN_CUT_SPACING:
            kept.append(x)
    if kept[-1] != end:
        kept[-1] = end
    return kept


def _cut_points(upoints: list[float], cut: float) -> list[float]:
    """The violator plus midpoints towards its existing neighbours.

    Points closer than _MIN_CUT_SPACING to the sample are dropped: between
    samples that close the interpolation dip is far below the certification
    tolerance, while near-duplicate rows degrade the simplex bases.
    """
    out = []
    lower = max((x for x in upoints if x < cut), default=None)
    upper = min((x for x in upoints if x > cut), default=None)
    if all(abs(cut - x) > _MIN_CUT_SPACING for x in upoints):
        out.append(cut)
    if lower is not None and cut - lower > 2 * _MIN_CUT_SPACING:
        out.append((cut + lower) / 2.0)
    if upper is not None and upper - cut > 2 * _MIN_CUT_SPACING:
        out.append((cut + upper) / 2.0)
    return out


@dataclass(frozen=True)
class SweepEntry:
    degree: int
    upper: LpSolution
    lower: LpSolution


def bound_sweep(
    g: Graph, max_degree: int, coefficient_cap: float = DEFAULT_COEFFICIENT_CAP
) -> tuple[SweepEntry, ...]:
    """Certified upper and lower bounds for every even degree 2..max_degree.

    A lower-degree polynomial lives inside every higher-degree space, so each
    entry inherits the previous one whenever the fresh solve lands worse;
    upper bounds are weakly decreasing and lower bounds weakly increasing by
    construction.
    """
    if max_degree < 2 or max_degree % 2 or max_degree > MAX_LP_DEGREE:
        raise ValueError(f"max degree must be even in 2..{MAX_LP_DEGREE}, got {max_degree}")
    scale = _bound_scale(g)
    walks = trace_moments(g, max_degree)
    entries: list[SweepEntry] = []
    for degree in range(2, max_degree + 1, 2):
        above = _sampled_problem(walks, scale, degree, "above", None, coefficient_cap)
        upper = solve_bound_lp(above)
        lower = solve_bound_lp(replace(above, direction="below"))
        if entries:
            if entries[-1].upper.objective < upper.objective:
                upper = entries[-1].upper
            if entries[-1].lower.objective > lower.objective:
                lower = entries[-1].lower
        entries.append(SweepEntry(degree, upper, lower))
    return tuple(entries)
