"""Generator families: sizes, structure, spec grammar, determinism."""

import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import menergy as me
from menergy.families import FamilyError, FamilySpec
from menergy.graphs import TRACE_MAX_VERTICES

from conftest import reference_from_edges, spectrum_of, summary_of

# Independent presentation of the Heawood graph for cross-checking the
# incidence construction: a 14-cycle with chords i -- i+5 from even i
# (LCF notation [5, -5]^7).
HEAWOOD_FIXTURE_EDGES = [(i, (i + 1) % 14) for i in range(14)] + [
    (i, (i + 5) % 14) for i in range(0, 14, 2)
]


@pytest.mark.parametrize(
    "spec,n,m",
    [
        ("complete:1", 1, 0),
        ("complete:5", 5, 10),
        ("cycle:3", 3, 3),
        ("cycle:12", 12, 12),
        ("path:1", 1, 0),
        ("path:10", 10, 9),
        ("star:1", 2, 1),
        ("star:9", 10, 9),
        ("bipartite:1:1", 2, 1),
        ("bipartite:4:5", 9, 20),
        ("petersen", 10, 15),
        ("heawood", 14, 21),
        ("rook:2", 4, 4),
        ("rook:5", 25, 100),
        ("projective:2", 14, 21),
        ("projective:3", 26, 52),
        ("projective:5", 62, 186),
        ("union:complete:2,complete:2", 4, 2),
    ],
)
def test_family_sizes(spec, n, m):
    g = me.generate_from_string(spec)
    assert (g.n, g.m) == (n, m)
    assert g.label == spec
    assert me.parse_family_spec(spec).order == n


def test_complete_structure():
    g = me.complete(6)
    assert me.is_regular(g) == 5
    assert me.is_connected(g)


def test_cycle_structure():
    g = me.cycle(6)
    assert me.is_regular(g) == 2
    assert me.bipartition(g) is not None
    assert me.bipartition(me.cycle(7)) is None


def test_star_structure():
    g = me.star(7)
    assert g.degree(0) in (7, 1)
    assert sorted(g.degrees(), reverse=True) == [7] + [1] * 7


def test_complete_bipartite_structure():
    g = me.complete_bipartite(3, 4)
    parts = me.bipartition(g)
    assert parts is not None
    assert sorted(map(len, parts)) == [3, 4]
    assert g.m == 12


def test_petersen_is_kneser():
    g = me.petersen()
    assert me.is_regular(g) == 3
    # Girth 5: no triangles and no quadrilaterals.
    assert summary_of(g).quad_count == 0
    assert me.trace_moments(g, 3)[3] == 0


@pytest.mark.parametrize("s", [2, 3, 5, 12])
def test_rook_row_column_adjacency(s):
    g = me.rook(s)
    for v in range(s * s):
        for w in range(v + 1, s * s):
            same_row = v // s == w // s
            same_col = v % s == w % s
            assert g.has_edge(v, w) == (same_row or same_col)


def test_rook_builds_its_lines_instead_of_masking_every_vertex_pair():
    tracemalloc.start()
    try:
        g = me.rook(60)  # n = 3600: the index arrays of all (n choose 2) vertex pairs take 104 MB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.matrix is None and g.m == 60 * 60 * 59
    assert peak < 100 * g.m


def test_projective_plane_counts():
    # PG(2, q): 2(q^2+q+1) vertices, each of degree q+1, girth 6.
    for q in (2, 3, 5):
        g = me.projective_plane_incidence(q)
        k = q * q + q + 1
        assert g.n == 2 * k
        assert me.is_regular(g) == q + 1
        assert me.bipartition(g) is not None
        assert me.trace_moments(g, 3)[3] == 0
        assert summary_of(g).quad_count == 0


def test_projective_plane_rejects_composite_and_prime_powers():
    for q in (1, 4, 6, 8, 9):
        with pytest.raises(FamilyError, match="prime"):
            me.projective_plane_incidence(q)


def test_heawood_is_projective_plane_of_order_two():
    g = me.heawood()
    p = me.projective_plane_incidence(2)
    assert (g.n, g.m) == (p.n, p.m)
    assert me.is_regular(g) == me.is_regular(p) == 3
    assert me.bipartition(g) is not None and me.bipartition(p) is not None
    assert summary_of(g).quad_count == summary_of(p).quad_count == 0
    assert spectrum_of(g).eigenvalues == pytest.approx(spectrum_of(p).eigenvalues)
    assert me.detect_design_incidence(g, summary_of(g)) == (7, 3, 1)
    assert me.detect_design_incidence(p, summary_of(p)) == (7, 3, 1)


def test_heawood_matches_lcf_fixture():
    """The published 14-cycle-plus-chords edge list pins the construction."""
    fixture = me.Graph.from_edges(14, HEAWOOD_FIXTURE_EDGES)
    g = me.heawood()
    assert (fixture.n, fixture.m) == (g.n, g.m)
    assert me.is_regular(fixture) == 3
    assert summary_of(fixture).quad_count == 0
    assert spectrum_of(fixture).eigenvalues == pytest.approx(spectrum_of(g).eigenvalues)
    assert me.detect_design_incidence(fixture, summary_of(fixture)) == (7, 3, 1)


def test_random_gnp_deterministic():
    a = me.random_gnp(18, 0.5, 7)
    b = me.random_gnp(18, 0.5, 7)
    assert a == b
    c = me.random_gnp(18, 0.5, 8)
    assert a != c


def test_random_gnp_extremes():
    assert me.random_gnp(9, 0.0, 1).m == 0
    assert me.random_gnp(9, 1.0, 1).m == 36


def test_gnp_label_keeps_every_digit_of_p():
    # %g keeps 6 significant digits: gnp:60:0.100005:9853 is another graph, with 171 edges.
    g = me.generate_from_string("gnp:60:0.1000049:9853")
    assert g.label == "gnp:60:0.1000049:9853" and g.m == 170
    assert me.random_gnp(12, 0.3, 42).label == "gnp:12:0.3:42"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12), st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_gnp_label_builds_the_same_graph(n, p, seed):
    g = me.random_gnp(n, p, seed)
    assert me.parse_family_spec(g.label).params == (n, p, seed)
    assert str(me.parse_family_spec(g.label)) == g.label
    assert me.generate_from_string(g.label) == g


def test_disjoint_union_counts():
    g = me.generate_from_string("union:complete:3,cycle:4")
    assert (g.n, g.m) == (7, 7)
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 2), (3, 4), (3, 6), (4, 5), (5, 6)]
    assert not me.is_connected(g)
    k3 = summary_of(me.complete(3))
    c4 = summary_of(me.cycle(4))
    s = summary_of(g)
    assert s.m2 == k3.m2 + c4.m2
    assert s.m4 == k3.m4 + c4.m4


def test_union_spectrum_is_component_union():
    g = me.generate_from_string("union:complete:3,cycle:4")
    merged = sorted(
        spectrum_of(me.complete(3)).eigenvalues + spectrum_of(me.cycle(4)).eigenvalues,
        reverse=True,
    )
    assert spectrum_of(g).eigenvalues == pytest.approx(merged, abs=1e-9)


@pytest.mark.parametrize(
    "spec,message",
    [
        ("", "empty family spec"),
        ("frob:3", "unknown family"),
        ("complete", "1 parameter"),
        ("complete:2:3", "1 parameter"),
        ("complete:x", "non-numeric"),
        ("complete:0", "n >= 1"),
        ("cycle:2", "n >= 3"),
        ("star:0", "k >= 1"),
        ("rook:1", "board size >= 2"),
        ("gnp:5:1.5:1", "probability in"),
        ("union:", "at least one member"),
        ("union:union:complete:2", "unknown family|nested"),
    ],
)
def test_spec_grammar_rejects(spec, message):
    with pytest.raises(FamilyError, match=message):
        me.generate_from_string(spec)


def test_generate_rejects_hand_built_spec_of_unknown_kind():
    with pytest.raises(FamilyError, match="unknown family"):
        me.generate(FamilySpec("frob", (3,)))


def test_spec_round_trip():
    for text in ("complete:5", "gnp:12:0.3:42", "union:complete:2,complete:2"):
        assert str(me.parse_family_spec(text)) == text


def loop_edges(spec: FamilySpec) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) of a spec as the builders listed them, one pair at a time, before they
    built index arrays; union members are shifted past the vertices before them."""
    kind, params = spec.kind, spec.params
    if kind == "union":
        n, edges = 0, []
        for part in spec.parts:
            size, part_edges = loop_edges(part)
            edges += [(i + n, j + n) for i, j in part_edges]
            n += size
        return n, edges
    if kind == "complete":
        return params[0], list(combinations(range(params[0]), 2))
    if kind == "cycle":
        return params[0], [(i, (i + 1) % params[0]) for i in range(params[0])]
    if kind == "path":
        return params[0], [(i, i + 1) for i in range(params[0] - 1)]
    if kind == "star":
        return params[0] + 1, [(0, i) for i in range(1, params[0] + 1)]
    if kind == "bipartite":
        p, q = params
        return p + q, [(i, p + j) for i in range(p) for j in range(q)]
    if kind == "petersen":
        pairs = list(combinations(range(5), 2))
        disjoint = [not set(pairs[a]) & set(pairs[b]) for a, b in combinations(range(10), 2)]
        return 10, [edge for edge, keep in zip(combinations(range(10), 2), disjoint) if keep]
    if kind == "rook":
        s = params[0]
        n = s * s
        return n, [
            (a, b) for a in range(n) for b in range(a + 1, n) if a // s == b // s or a % s == b % s
        ]
    if kind in ("projective", "heawood"):
        q = params[0] if params else 2
        triples = [(1, y, z) for y in range(q) for z in range(q)] + [(0, 1, z) for z in range(q)]
        triples.append((0, 0, 1))
        k = len(triples)
        return 2 * k, [
            (pi, k + li)
            for pi, p in enumerate(triples)
            for li, line in enumerate(triples)
            if (p[0] * line[0] + p[1] * line[1] + p[2] * line[2]) % q == 0
        ]
    assert kind == "gnp"
    n, p, seed = params
    rng = random.Random(seed)
    return n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


@pytest.mark.parametrize(
    "spec",
    [
        "complete:1", "complete:2", "complete:70", "cycle:3", "cycle:65", "path:1", "path:2",
        "path:66", "star:1", "star:70", "bipartite:1:1", "bipartite:3:5", "bipartite:40:30",
        "petersen", "heawood", "rook:2", "rook:9", "projective:2", "projective:3",
        "projective:7", "gnp:0:0.5:1", "gnp:1:0.5:1", "gnp:9:0:3", "gnp:9:1:3", "gnp:30:0.5:4",
        "gnp:80:0.1:5", "union:complete:1", "union:complete:3,cycle:4,gnp:0:0.5:1,star:2",
        "union:petersen,heawood,path:1", f"cycle:{TRACE_MAX_VERTICES + 1}",
        f"union:path:3,star:{TRACE_MAX_VERTICES}", f"gnp:{TRACE_MAX_VERTICES + 2}:0.0005:7",
    ],
)
def test_builders_equal_the_per_edge_reference(spec):
    g = me.generate_from_string(spec)
    assert (g.n, tuple(g.edges())) == reference_from_edges(*loop_edges(me.parse_family_spec(spec)))


_member_specs = st.one_of(
    st.builds("complete:{}".format, st.integers(1, 9)),
    st.builds("cycle:{}".format, st.integers(3, 9)),
    st.builds("star:{}".format, st.integers(1, 9)),
    st.builds("bipartite:{}:{}".format, st.integers(1, 5), st.integers(1, 5)),
    st.builds("rook:{}".format, st.integers(2, 4)),
    st.builds("gnp:{}:{}:{}".format, st.integers(0, 20), st.sampled_from([0.1, 0.9]), st.integers(0, 99)),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_member_specs, min_size=1, max_size=4))
def test_property_unions_equal_the_per_edge_reference(members):
    spec = me.parse_family_spec("union:" + ",".join(members))
    g = me.generate(spec)
    assert (g.n, tuple(g.edges())) == reference_from_edges(*loop_edges(spec))
    assert g == me.disjoint_union([me.generate(part) for part in spec.parts])
