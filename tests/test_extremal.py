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
    spectrum_of,
    summary_of,
)


def expand(multiplicity_spectrum):
    out = []
    for value, mult in multiplicity_spectrum:
        out.extend([value] * int(round(mult)))
    return sorted(out, reverse=True)


def test_detect_complete():
    assert me.detect_complete(corpus_graph("complete:5"))
    assert me.detect_complete(corpus_graph("complete:2"))
    assert me.detect_complete(corpus_graph("path:1"))  # K1
    assert not me.detect_complete(corpus_graph("cycle:5"))
    assert not me.detect_complete(corpus_graph("path:5"))


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
    assert me.detect_srg(corpus_graph(spec)) == params


@pytest.mark.parametrize("spec", ["complete:5", "path:5", "star:4", "cycle:7", "heawood"])
def test_detect_srg_rejects(spec):
    # Complete graphs are excluded by convention; the rest are not SRGs.
    assert me.detect_srg(corpus_graph(spec)) is None


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
    assert me.detect_design_incidence(corpus_graph(spec)) == params


@pytest.mark.parametrize("spec", ["petersen", "star:4", "path:5", "bipartite:2:3", "complete:5"])
def test_detect_design_incidence_rejects(spec):
    assert me.detect_design_incidence(corpus_graph(spec)) is None


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
    assert me.detect_srg(g) == brute_force_srg(g)
    assert me.detect_design_incidence(g) == brute_force_design(g)
    assert me.count_quadrilaterals(g) == brute_force_quad_count(g)


@pytest.mark.parametrize(
    "spec,args",
    [("rook:4", (16, 6, 2, 2)), ("petersen", (10, 3, 0, 1)), ("rook:5", (25, 8, 3, 2))],
)
def test_srg_spectrum_formula_matches_eigensolver(spec, args):
    got = expand(me.srg_spectrum(*args))
    ref = list(spectrum_of(corpus_graph(spec)).eigenvalues)
    assert got == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize(
    "spec,args",
    [("heawood", (7, 3, 1)), ("projective:3", (13, 4, 1)), ("cycle:4", (2, 2, 2))],
)
def test_design_spectrum_formula_matches_eigensolver(spec, args):
    got = expand(me.design_spectrum(*args))
    ref = list(spectrum_of(corpus_graph(spec)).eigenvalues)
    assert got == pytest.approx(ref, abs=1e-9)


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
        out = me.classify_equality(g, summary_of(g))
    assert str(out) == "TightUnclassified"
    assert any("tight" in str(w.message).lower() for w in caught)


def test_classify_not_tight_short_circuits():
    g = corpus_graph("petersen")
    out = me.classify_equality(g, summary_of(g))
    assert str(out) == "NotTight"


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


@pytest.mark.parametrize(
    "spec,expected",
    [("rook:4", "SrgEqualParams(16,6,2,2)"), ("heawood", "DesignIncidence(7,3,1)"),
     ("projective:7", "DesignIncidence(57,8,1)")],
)
def test_analysis_multiplies_the_codegree_matrix_once(spec, expected, monkeypatch):
    # Tight strongly regular and design graphs reach a detector after the
    # moment summary; both read the summary's matrix instead of recomputing it.
    calls = []

    def counted(g):
        calls.append(g.n)
        return me.codegree_matrix(g)

    monkeypatch.setattr(me.moments, "codegree_matrix", counted)
    monkeypatch.setattr(me.extremal, "codegree_matrix", counted)
    report = me.analyze_graph(me.generate_from_string(spec))
    assert str(report.classification) == expected
    assert len(calls) == 1
    assert not report.summary.codegree.flags.writeable
