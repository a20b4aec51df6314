"""Per-graph analysis combining exact energy, moment bounds, and classification."""

from __future__ import annotations

from dataclasses import dataclass

from .extremal import EqualityClass, classify_equality
from .graphs import Graph, is_connected, is_regular
from .moments import MomentSummary, ScaledMoments, moment_summary, scaled_moments
from .quartic import best_quartic_bound, optimal_tangency, van_dam_bound
from .spectral import eigenvalues

SOUNDNESS_RTOL = 1e-7


@dataclass(frozen=True)
class BoundReport:
    """Everything the reporting layer knows about one graph."""

    summary: MomentSummary
    scaled: ScaledMoments | None
    energy: float
    quartic_bound: float
    van_dam_bound: float | None
    tangency: float
    tangency_clamped: bool
    tightness: float
    classification: EqualityClass
    connected: bool


def analyze_graph(g: Graph) -> BoundReport:
    """Full analysis of one graph, whose one connectivity search also serves the classifier.
    An edgeless graph has energy and bound 0 and no scaled moments, and nothing else runs."""
    summary = moment_summary(g)
    connected = is_connected(g)
    if summary.m == 0:
        energy = bound = 0.0
        scaled, vd, tangency, clamped, tightness = None, None, 1.0, True, 1.0
        classification = EqualityClass("TightUnclassified")
    else:
        energy = eigenvalues(g).energy
        scaled = scaled_moments(summary)
        tangency, clamped = optimal_tangency(summary)
        bound = best_quartic_bound(summary)
        vd = van_dam_bound(summary) if is_regular(g) is not None else None
        tightness = bound / energy
        classification = classify_equality(g, summary, connected)
    return BoundReport(
        summary, scaled, energy, bound, vd, tangency, clamped, tightness, classification, connected
    )


def soundness_ok(energy: float, upper: float, lower: float = 0.0) -> bool:
    """The non-negotiable invariant: neither bound crosses the energy by more than the slack."""
    slack = SOUNDNESS_RTOL * max(1.0, energy)
    return upper >= energy - slack and lower <= energy + slack
