"""Equality-case detection and classification of tight bounds."""

import warnings

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import menergy as me

from conftest import (
    CORPUS_SPECS,
    brute_force_design,
    brute_force_quad_count,
    brute_force_srg,
    corpus_graph,
    summary_of,
)


def test_detect_complete():
    assert me.detect_complete(summary_of(corpus_graph("complete:5")))
    assert me.detect_complete(summary_of(corpus_graph("complete:2")))
    assert me.detect_complete(summary_of(corpus_graph("path:1")))  # K1
    assert not me.detect_complete(summary_of(corpus_graph("cycle:5")))
    assert not me.detect_complete(summary_of(corpus_graph("path:5")))


@pytest.mark.parametrize(
    "spec,params",
    [
        ("rook:3", (9, 4, 1, 2)),
        ("rook:4", (16, 6, 2, 2)),
        ("rook:5", (25, 8, 3, 2)),
        ("petersen", (10, 3, 0, 1)),
        ("cycle:5", (5, 2, 0, 1)),
    ],
)
def test_detect_srg_parameters(spec, params):
    g = corpus_graph(spec)
    assert me.detect_srg(g, summary_of(g)) == params


@pytest.mark.parametrize("spec", ["complete:5", "path:5", "star:4", "cycle:7", "heawood"])
def test_detect_srg_rejects(spec):
    # Complete graphs are excluded by convention; the rest are not SRGs.
    g = corpus_graph(spec)
    assert me.detect_srg(g, summary_of(g)) is None


@pytest.mark.parametrize(
    "spec,params",
    [
        ("heawood", (7, 3, 1)),
        ("projective:3", (13, 4, 1)),
        ("cycle:4", (2, 2, 2)),
        ("complete:2", (1, 1, 0)),
        ("bipartite:3:3", (3, 3, 3)),
    ],
)
def test_detect_design_incidence(spec, params):
    g = corpus_graph(spec)
    assert me.detect_design_incidence(g, summary_of(g)) == params


@pytest.mark.parametrize(
    "spec", ["petersen", "star:4", "path:4", "path:5", "bipartite:2:3", "complete:5", "cycle:8"]
)
def test_detect_design_incidence_rejects(spec):
    # path:4 has equal parts and codegree 1 within each, but is not regular.
    # cycle:8 is regular and bipartite, but its within-part codegrees are 0 and 1.
    g = corpus_graph(spec)
    assert me.detect_design_incidence(g, summary_of(g)) is None


# Families that pass a detector, mixed in so the property is not all rejections.
_DETECTABLE_SPECS = [
    "cycle:4",
    "cycle:5",
    "complete:2",
    "bipartite:3:3",
    "petersen",
    "heawood",
    "rook:3",
    "projective:2",
    "union:complete:2,complete:2",
]


def _relabelled(spec: str, seed: int) -> me.Graph:
    g = me.generate_from_string(spec)
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return me.Graph.from_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges()])


_small_graphs = st.one_of(
    st.builds(
        me.random_gnp,
        st.integers(min_value=0, max_value=14),
        st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]),
        st.integers(min_value=0, max_value=10_000),
    ),
    st.builds(_relabelled, st.sampled_from(_DETECTABLE_SPECS), st.integers(0, 10_000)),
)


@settings(max_examples=150, deadline=None)
@given(_small_graphs)
def test_property_codegree_detectors_match_pairwise_oracles(g):
    s = me.moment_summary(g)
    assert me.detect_srg(g, s) == brute_force_srg(g)
    assert me.detect_design_incidence(g, s) == brute_force_design(g)
    assert s.quad_count == brute_force_quad_count(g)


def test_spectrum_membership():
    assert me.spectrum_membership(summary_of(corpus_graph("rook:4")))
    # Petersen's spectrum {3, 1, -2} is not of the {±Δ, ±r*Δ} shape.
    assert not me.spectrum_membership(summary_of(corpus_graph("petersen")))


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("complete:2", "Complete"),
        ("complete:5", "Complete"),
        ("complete:12", "Complete"),
        ("heawood", "DesignIncidence(7,3,1)"),
        ("projective:3", "DesignIncidence(13,4,1)"),
        ("projective:5", "DesignIncidence(31,6,1)"),
        ("cycle:4", "DesignIncidence(2,2,2)"),
        ("bipartite:3:3", "DesignIncidence(3,3,3)"),
        ("rook:4", "SrgEqualParams(16,6,2,2)"),
        ("petersen", "NotTight"),
        ("star:4", "NotTight"),
        ("path:5", "NotTight"),
        ("gnp:15:0.5:2", "NotTight"),
        ("union:complete:2,complete:2", "TightUnclassified"),
    ],
)
def test_classification_over_corpus(spec, expected):
    report = me.analyze_graph(corpus_graph(spec))
    assert str(report.classification) == expected


def test_named_classes_imply_spectrum_membership():
    for spec in ("complete:5", "heawood", "rook:4", "cycle:4", "projective:3"):
        g = corpus_graph(spec)
        report = me.analyze_graph(g)
        assert report.classification.tag in ("Complete", "DesignIncidence", "SrgEqualParams"), spec
        assert me.spectrum_membership(report.summary), spec


def test_tight_but_unnamed_warns(monkeypatch):
    # A graph whose bound is tight without matching a named family must warn
    # rather than silently classify.  Build one artificially by hiding the
    # family of a tight graph from every detector.
    g = corpus_graph("heawood")
    for name in ("detect_complete", "detect_design_incidence", "detect_srg"):
        monkeypatch.setattr(me.extremal, name, lambda *args: None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = me.classify_equality(g, summary_of(g), connected=True)
    assert str(out) == "TightUnclassified"
    assert any("tight" in str(w.message).lower() for w in caught)


def test_classify_not_tight_short_circuits():
    g = corpus_graph("petersen")
    out = me.classify_equality(g, summary_of(g), connected=True)
    assert str(out) == "NotTight"


def test_analysis_searches_for_connectivity_once_per_graph(monkeypatch):
    # classify_equality takes the connectivity analyze_graph holds; heawood and
    # complete:5 are tight, so they reach the classifier's connectivity test.
    calls = []
    for module in (me.report, me.extremal):
        if hasattr(module, "is_connected"):
            search = module.is_connected
            monkeypatch.setattr(module, "is_connected", lambda g, f=search: calls.append(g) or f(g))
    specs = ("petersen", "heawood", "complete:5")
    for spec in specs:
        me.analyze_graph(corpus_graph(spec))
    assert len(calls) == len(specs)


@pytest.mark.parametrize("spec", ["complete:1", "union:complete:1,complete:1"])
def test_an_edgeless_analysis_runs_no_spectrum_bound_or_classifier(spec, monkeypatch):
    names = ("eigenvalues", "scaled_moments", "optimal_tangency", "best_quartic_bound",
             "is_regular", "van_dam_bound", "classify_equality")
    for name in names:
        monkeypatch.setattr(me.report, name, lambda *args, name=name: pytest.fail(name))
    g = corpus_graph(spec)
    report = me.analyze_graph(g)
    assert (report.energy, report.quartic_bound, report.tightness) == (0.0, 0.0, 1.0)
    assert (report.tangency, report.tangency_clamped) == (1.0, True)
    assert report.scaled is None and report.van_dam_bound is None
    assert str(report.classification) == "TightUnclassified"
    assert report.connected == (g.n == 1)


def test_a_disconnected_tight_graph_stays_unclassified():
    g = corpus_graph("complete:5")
    assert str(me.classify_equality(g, summary_of(g), connected=False)) == "TightUnclassified"


def test_k2_is_complete_not_design():
    # K2 satisfies both patterns; the class order prefers Complete.
    report = me.analyze_graph(corpus_graph("complete:2"))
    assert str(report.classification) == "Complete"


@pytest.mark.parametrize("spec", CORPUS_SPECS)
def test_classification_total_over_corpus(spec):
    g = corpus_graph(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = me.analyze_graph(g)
    assert str(report.classification) != ""
    tag = report.classification.tag
    assert tag in {
        "Complete",
        "DesignIncidence",
        "SrgEqualParams",
        "NotTight",
        "TightUnclassified",
    }


class _Adjacency(np.ndarray):
    """An adjacency matrix that records the order and dtype of each matrix product
    taking it as both factors."""

    squares: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and all(isinstance(x, _Adjacency) for x in inputs):
            _Adjacency.squares.append((len(self), self.dtype))
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


@pytest.mark.parametrize(
    "spec,expected",
    [("rook:4", "SrgEqualParams(16,6,2,2)"), ("heawood", "DesignIncidence(7,3,1)"),
     ("projective:7", "DesignIncidence(57,8,1)")],
)
def test_analysis_squares_the_adjacency_once(spec, expected, monkeypatch):
    # moment_summary forms A @ A once, in single precision, and shares it: the walk
    # counts take it as A^2, the 4-cycle count and the equality detectors as the
    # codegree matrix.
    dense = me.spectral.dense_adjacency
    for module in (me.moments, me.spectral):
        monkeypatch.setattr(
            module, "dense_adjacency", lambda g, *dtype: dense(g, *dtype).view(_Adjacency)
        )
    monkeypatch.setattr(_Adjacency, "squares", [])
    report = me.analyze_graph(me.generate_from_string(spec))
    assert str(report.classification) == expected
    assert _Adjacency.squares == [(report.summary.n, np.float32)]
    assert not report.summary.codegree.flags.writeable
    assert type(report.summary.codegree) is np.ndarray
