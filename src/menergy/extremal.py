"""Classification of graphs attaining the quartic energy bound.

Equality holds iff the spectrum lies in {±D, ±rD}, where the dilated P_r at
the optimal tangency r touches |x|; it is decided on the exact walk counts up
to M6.  Among connected graphs the known families with such spectra are
complete graphs, strongly regular graphs whose two path-count parameters
coincide, and incidence graphs of symmetric designs; the classifier recognises
exactly these and reports anything else as tight but unclassified.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, bipartition, is_connected, is_regular
from .moments import MomentSummary, codegree_matrix


@dataclass(frozen=True)
class EqualityClass:
    """Outcome of equality classification.

    tag is one of Complete, SrgEqualParams, DesignIncidence, NotTight,
    TightUnclassified; params carries (n, d, lambda, mu) for strongly regular
    graphs and (v, k, lambda) for design incidence graphs.
    """

    tag: str
    params: tuple[int, ...] = ()

    def __str__(self) -> str:
        if self.params:
            return f"{self.tag}({','.join(str(p) for p in self.params)})"
        return self.tag


def spectrum_membership(s: MomentSummary) -> bool:
    """True iff every eigenvalue lies in {±D, ±rD}, decided on exact integers.

    In t = x^2 the measure (D^2 - t) mu has moments c0, c1, c2 (MomentSummary.gaps),
    so c1^2 <= c0 c2, with equality iff it has at most one atom, at c1 / c0 = (rD)^2.
    """
    c0, c1, c2 = s.gaps
    return c0 * c2 == c1 * c1


def detect_complete(g: Graph) -> bool:
    return g.n >= 1 and g.m == g.n * (g.n - 1) // 2


def detect_srg(g: Graph, codegree: np.ndarray | None = None) -> tuple[int, int, int, int] | None:
    """Parameters (n, d, lambda, mu) if g is strongly regular, else None.

    Requires regularity, a constant common-neighbour count over adjacent
    pairs (lambda) and over non-adjacent pairs (mu); complete and empty
    graphs are excluded because one of the counts is vacuous.
    """
    if g.n < 2:
        return None
    d = is_regular(g)
    if d is None:
        return None
    c = codegree_matrix(g) if codegree is None else codegree
    adjacent = g.matrix.astype(bool)
    apart = ~adjacent
    np.fill_diagonal(apart, False)
    lams = np.unique(c[adjacent])
    mus = np.unique(c[apart])
    if len(lams) != 1 or len(mus) != 1:
        return None
    return (g.n, d, int(lams[0]), int(mus[0]))


def detect_design_incidence(
    g: Graph, codegree: np.ndarray | None = None
) -> tuple[int, int, int] | None:
    """Parameters (v, k, lambda) if g is the incidence graph of a symmetric design.

    Recognised shape: bipartite with equal part sizes v, every degree k >= 1,
    and a constant codegree lambda within each part (the same constant on
    both).  The single-edge graph passes trivially as (1, 1, 0).  Meaningful
    on connected graphs, where the bipartition is unique.
    """
    parts = bipartition(g)
    if parts is None:
        return None
    left, right = parts
    if not left or not right or len(left) != len(right):
        return None
    v = len(left)
    degs = set(g.degrees())
    if len(degs) != 1:
        return None
    k = degs.pop()
    if k < 1:
        return None
    side = np.zeros(g.n, dtype=bool)
    side[list(right)] = True
    same_part = side[:, None] == side[None, :]
    np.fill_diagonal(same_part, False)
    lams = np.unique((codegree_matrix(g) if codegree is None else codegree)[same_part])
    if len(lams) > 1:
        return None
    lam = int(lams[0]) if len(lams) else 0
    return (v, k, lam)


def srg_spectrum(n: int, d: int, lam: int, mu: int) -> tuple[tuple[float, float], ...]:
    """Distinct eigenvalues with multiplicities for a strongly regular graph."""
    disc = math.sqrt((lam - mu) ** 2 + 4 * (d - mu))
    theta = ((lam - mu) + disc) / 2.0
    tau = ((lam - mu) - disc) / 2.0
    shared = (2 * d + (n - 1) * (lam - mu)) / disc
    return (
        (float(d), 1.0),
        (theta, ((n - 1) - shared) / 2.0),
        (tau, ((n - 1) + shared) / 2.0),
    )


def design_spectrum(v: int, k: int, lam: int) -> tuple[tuple[float, float], ...]:
    """Distinct eigenvalues with multiplicities for a symmetric design incidence graph."""
    s = math.sqrt(k - lam)
    return ((float(k), 1.0), (s, float(v - 1)), (-s, float(v - 1)), (float(-k), 1.0))


def classify_equality(g: Graph, s: MomentSummary) -> EqualityClass:
    """Decide whether the bound is attained and, if so, by which family.

    Checks in order: tightness of the bound (spectrum_membership), then
    complete graphs, design incidence graphs, and strongly regular graphs with
    equal parameters.
    The single edge matches both the complete and the design shape and is
    reported as Complete.  A tight graph outside every family triggers a
    warning and comes back TightUnclassified.
    """
    if not spectrum_membership(s):
        return EqualityClass("NotTight")
    if g.n < 2 or not is_connected(g):
        return EqualityClass("TightUnclassified")
    if detect_complete(g):
        return EqualityClass("Complete")
    design = detect_design_incidence(g, s.codegree)
    if design is not None:
        return EqualityClass("DesignIncidence", design)
    srg = detect_srg(g, s.codegree)
    if srg is not None and srg[2] == srg[3]:
        return EqualityClass("SrgEqualParams", srg)
    warnings.warn(
        f"bound is tight but the graph (n={g.n}, m={g.m}) matches no known equality family",
        stacklevel=2,
    )
    return EqualityClass("TightUnclassified")
