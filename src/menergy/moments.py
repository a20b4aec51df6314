"""Combinatorial spectral moments: degree statistics, 4-cycle counts, and
the scaled moment triple that drives the quartic bounds.

The second and fourth moments of the adjacency spectrum count closed walks:
M2 = 2m and M4 = 2 * zagreb - 2m + 8 * quad_count, where zagreb is the sum
of squared degrees and quad_count the number of quadrilateral subgraphs.
Every quantity here is an exact integer; the 4-cycle count is computed by
two independent routes that must agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .graphs import Graph
from .spectral import dense_adjacency, trace_moments


class MomentMismatchError(RuntimeError):
    """Two independent computations of the same quantity disagreed."""


class NoEdgesError(ValueError):
    """Scaled moments are undefined for edgeless graphs (energy is 0 there)."""


class DegreeStats(NamedTuple):
    edge_count: int
    max_degree: int
    zagreb: int


def degree_stats(g: Graph) -> DegreeStats:
    degs = g.degrees()
    return DegreeStats(
        edge_count=sum(degs) // 2,
        max_degree=max(degs, default=0),
        zagreb=sum(d * d for d in degs),
    )


def codegree_matrix(g: Graph) -> np.ndarray:
    """A @ A as int64: off-diagonal entries count common neighbours, the
    diagonal holds the degrees.

    Computed in float32 BLAS, which is exact because every term and partial sum is an
    integer no larger than its entry, at most n < 2^24.
    """
    a = dense_adjacency(g, np.float32)
    return (a @ a).astype(np.int64)


def _quad_count_checked(c: np.ndarray, zagreb: int, m: int, t4: int) -> int:
    # Sum over unordered pairs of C(c, 2).  Over the ordered pairs off the diagonal
    # c(c - 1) sums to sum c^2 - sum c - (zagreb - 2m), since the diagonal holds the
    # degrees; that is twice C(c, 2), and each unordered pair is visited twice.
    flat = c.reshape(-1)
    pair_sum = (int(np.dot(flat, flat)) - int(flat.sum()) - zagreb + 2 * m) // 4
    if pair_sum % 2:
        raise MomentMismatchError("common-neighbour pair sum must be even")
    q = pair_sum // 2
    num = t4 - 2 * zagreb + 2 * m
    if num % 8:
        raise MomentMismatchError(f"Tr(A^4) - 2*zagreb + 2*m = {num} is not divisible by 8")
    if num // 8 != q:
        raise MomentMismatchError(
            f"4-cycle counts disagree: walk route {num // 8}, codegree route {q}"
        )
    return q


@dataclass(frozen=True)
class MomentSummary:
    """Exact integer moment data for one graph, with the codegree matrix it was counted from."""

    n: int
    m: int
    max_degree: int
    zagreb: int
    quad_count: int
    m2: int
    m4: int
    m6: int
    codegree: np.ndarray = field(repr=False, compare=False)

    @property
    def gaps(self) -> tuple[int, int, int]:
        """c_j = D^2 M_2j - M_2j+2 for j <= 2: the moments of (D^2 - t) mu in t = x^2."""
        d2 = self.max_degree**2
        return self.n * d2 - self.m2, d2 * self.m2 - self.m4, d2 * self.m4 - self.m6


def moment_summary(g: Graph) -> MomentSummary:
    """Assemble all integer moment quantities, self-checking against walk counts.

    Raises CapExceededError above the dense-kernel vertex cap.
    """
    st = degree_stats(g)
    a = dense_adjacency(g, np.float32)  # exact: entries of A @ A are at most n < 2^24
    square = a @ a  # formed once: A^2 for the walk counts, and the codegree matrix
    traces = trace_moments(g, 6, square)
    c = square.astype(np.int64)
    c.flags.writeable = False  # shared with the equality detectors through the summary
    q = _quad_count_checked(c, st.zagreb, st.edge_count, traces[4])
    m2 = 2 * st.edge_count
    if m2 != traces[2]:
        raise MomentMismatchError(f"M2 = 2m = {m2} disagrees with the walk count {traces[2]}")
    return MomentSummary(
        n=g.n,
        m=st.edge_count,
        max_degree=st.max_degree,
        zagreb=st.zagreb,
        quad_count=q,
        m2=m2,
        m4=traces[4],  # _quad_count_checked proved it equals 2 zagreb - 2m + 8q
        m6=traces[6],
        codegree=c,
    )


@dataclass(frozen=True)
class ScaledMoments:
    """The dimension-reduced moments (M4/D^3, M2/D, n*D) for D = max degree.

    The ordering m4_scaled <= m2_scaled <= m0_scaled holds for every graph
    with an edge; construction re-checks it.
    """

    m4_scaled: float
    m2_scaled: float
    m0_scaled: float


def scaled_moments(s: MomentSummary) -> ScaledMoments:
    if s.max_degree < 1:
        raise NoEdgesError("scaled moments are undefined without edges")
    d = float(s.max_degree)
    triple = ScaledMoments(s.m4 / d**3, s.m2 / d, s.n * d)
    # The triple's ordering times D^3 and times D is c1 >= 0 and c0 >= 0, on exact integers.
    if min(s.gaps[:2]) < 0:
        raise MomentMismatchError(f"scaled moment ordering violated: {triple}")
    return triple
