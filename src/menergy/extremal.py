"""Classification of graphs attaining the quartic energy bound.

Equality holds iff the spectrum lies in {±D, ±rD}, where the dilated P_r at
the optimal tangency r touches |x|; it is decided on the exact walk counts up
to M6.  Among connected graphs the known families with such spectra are
complete graphs, strongly regular graphs whose two path-count parameters
coincide, and incidence graphs of symmetric designs; the classifier recognises
exactly these and reports anything else as tight but unclassified.
Every test reads the graph's one MomentSummary: regularity is n D = 2m,
completeness m = n(n-1)/2, and the codegrees are the summary's matrix.
Connectivity is the caller's: analyze_graph searches once and passes it in.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, bipartition
from .moments import MomentSummary


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


def detect_complete(s: MomentSummary) -> bool:
    return s.n >= 1 and s.m == s.n * (s.n - 1) // 2


def detect_srg(g: Graph, s: MomentSummary) -> tuple[int, int, int, int] | None:
    """Parameters (n, d, lambda, mu) if g is strongly regular, else None.

    Requires regularity, a constant common-neighbour count over adjacent
    pairs (lambda) and over non-adjacent pairs (mu); complete and empty
    graphs are excluded because one of the counts is vacuous.  s is g's
    moment summary, which carries the codegree matrix.
    """
    if s.n < 2 or s.n * s.max_degree != 2 * s.m:  # 2m reaches n D only if every degree is D
        return None
    adjacent = g.matrix.astype(bool)
    apart = ~adjacent
    np.fill_diagonal(apart, False)
    lams = np.unique(s.codegree[adjacent])
    mus = np.unique(s.codegree[apart])
    if len(lams) != 1 or len(mus) != 1:
        return None
    return (s.n, s.max_degree, int(lams[0]), int(mus[0]))


def detect_design_incidence(g: Graph, s: MomentSummary) -> tuple[int, int, int] | None:
    """Parameters (v, k, lambda) if g is the incidence graph of a symmetric design.

    Recognised shape: bipartite with equal part sizes v, every degree k >= 1,
    and a constant codegree lambda within each part (the same constant on
    both).  The single-edge graph passes trivially as (1, 1, 0).  Meaningful
    on connected graphs, where the bipartition is unique.  s is g's moment
    summary, which carries the codegree matrix.
    """
    if s.max_degree < 1 or s.n * s.max_degree != 2 * s.m or (parts := bipartition(g)) is None:
        return None
    left, right = parts  # nD = 2m and every edge crosses, so each part holds m / D vertices
    side = np.zeros(s.n, dtype=bool)
    side[list(right)] = True
    same_part = side[:, None] == side[None, :]
    np.fill_diagonal(same_part, False)
    lams = np.unique(s.codegree[same_part])
    if len(lams) > 1:
        return None
    lam = int(lams[0]) if len(lams) else 0
    return (len(left), s.max_degree, lam)


def classify_equality(g: Graph, s: MomentSummary, connected: bool) -> EqualityClass:
    """Decide whether the bound is attained and, if so, by which family.

    Checks in order: tightness of the bound (spectrum_membership), connectivity (the
    caller's is_connected(g)), then complete graphs, design incidence graphs, and
    strongly regular graphs with equal parameters.
    The single edge matches both the complete and the design shape and is
    reported as Complete.  A tight graph outside every family triggers a
    warning and comes back TightUnclassified.
    """
    if not spectrum_membership(s):
        return EqualityClass("NotTight")
    if g.n < 2 or not connected:
        return EqualityClass("TightUnclassified")
    if detect_complete(s):
        return EqualityClass("Complete")
    design = detect_design_incidence(g, s)
    if design is not None:
        return EqualityClass("DesignIncidence", design)
    srg = detect_srg(g, s)
    if srg is not None and srg[2] == srg[3]:
        return EqualityClass("SrgEqualParams", srg)
    warnings.warn(
        f"bound is tight but the graph (n={g.n}, m={g.m}) matches no known equality family",
        stacklevel=2,
    )
    return EqualityClass("TightUnclassified")
