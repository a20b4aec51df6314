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
    """Full analysis of one graph.

    Edgeless graphs short-circuit: energy and bound are both zero and the
    scaled moments stay unset.
    """
    summary = moment_summary(g)
    connected = is_connected(g)
    if summary.m == 0:
        return BoundReport(
            summary=summary,
            scaled=None,
            energy=0.0,
            quartic_bound=0.0,
            van_dam_bound=None,
            tangency=1.0,
            tangency_clamped=True,
            tightness=1.0,
            classification=EqualityClass("TightUnclassified"),
            connected=connected,
        )
    energy_value = eigenvalues(g).energy
    scaled = scaled_moments(summary)
    tangency, clamped = optimal_tangency(summary)
    bound = best_quartic_bound(summary)
    vd = van_dam_bound(summary) if is_regular(g) is not None else None
    classification = classify_equality(g, summary)
    return BoundReport(
        summary=summary,
        scaled=scaled,
        energy=energy_value,
        quartic_bound=bound,
        van_dam_bound=vd,
        tangency=tangency,
        tangency_clamped=clamped,
        tightness=bound / energy_value,
        classification=classification,
        connected=connected,
    )


def soundness_ok(energy: float, upper: float, lower: float = 0.0) -> bool:
    """The non-negotiable invariant: neither bound crosses the energy by more than the slack."""
    slack = SOUNDNESS_RTOL * max(1.0, energy)
    return upper >= energy - slack and lower <= energy + slack
