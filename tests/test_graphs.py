"""Core graph type: construction, validation, traversal predicates."""

import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import menergy as me
from menergy import graphs
from menergy.graphs import TRACE_MAX_VERTICES, GraphError

from conftest import CORPUS_SPECS, corpus_graph, reference_bipartition


def test_from_edges_basic():
    g = me.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.degrees() == (1, 2, 2, 1)
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_from_edges_takes_numpy_integer_endpoints():
    edges = [(np.int64(0), np.int64(1)), (np.int32(1), 2)]
    assert me.Graph.from_edges(3, edges) == me.Graph.from_edges(3, [(0, 1), (1, 2)])
    # 1 << np.int64(65) would wrap to 1 << 1.
    wide = me.Graph.from_edges(70, [(0, np.int64(65))])
    assert wide == me.Graph.from_edges(70, [(0, 65)])
    assert list(wide.edges()) == [(0, 65)]


def test_from_edges_collapses_duplicates():
    g = me.Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_from_edges_rejects_self_loop():
    with pytest.raises(GraphError, match="self loop"):
        me.Graph.from_edges(3, [(1, 1)])


def test_from_edges_rejects_out_of_range():
    with pytest.raises(GraphError, match="out of range"):
        me.Graph.from_edges(3, [(0, 3)])


@pytest.mark.parametrize("row", [0b100, -1])
def test_constructor_rejects_neighbour_out_of_range(row):
    # from_edges is the only constructor; a negative index must not wrap round to n - 1.
    with pytest.raises(GraphError, match=f"edge \\(0, {row}\\): vertex index out of range for n=2"):
        me.Graph.from_edges(2, [(0, 1), (0, row)])


def test_constructor_rejects_diagonal_bit():
    with pytest.raises(GraphError, match="edge \\(0, 0\\): self loop"):
        me.Graph.from_edges(2, [(0, 1), (0, 0)])


def test_from_edges_takes_an_index_array_and_names_the_first_bad_pair():
    ends = np.array([[0, 1], [2, 1], [3, 3], [5, 0]])
    with pytest.raises(GraphError, match="edge \\(3, 3\\): self loop"):
        me.Graph.from_edges(4, ends)
    with pytest.raises(GraphError, match="edge \\(5, 0\\): vertex index out of range for n=5"):
        me.Graph.from_edges(5, ends[[0, 1, 3]].astype(np.int32))
    assert me.Graph.from_edges(4, ends[:2]) == me.Graph.from_edges(4, [(0, 1), (1, 2)])


@pytest.mark.parametrize("edges", [[(0, 1.0)], [(0, 1, 2)], np.zeros((2, 3), np.int64), [(0, "1")]])
def test_from_edges_refuses_what_is_not_integer_pairs(edges):
    with pytest.raises(TypeError, match="integer pairs"):
        me.Graph.from_edges(3, edges)


def test_from_edges_rejects_negative_vertex_count():
    with pytest.raises(GraphError, match="vertex count must be non-negative"):
        me.Graph.from_edges(-1, [])


def test_label_not_part_of_identity():
    a = me.Graph.from_edges(2, [(0, 1)], label="a")
    b = me.Graph.from_edges(2, [(0, 1)], label="b")
    assert a == b
    assert hash(a) == hash(b)


def test_adjacency_matrix_matches_edges():
    g = corpus_graph("petersen")
    a = me.adjacency_matrix(g)
    assert a.dtype == np.int64
    assert np.array_equal(a, a.T)
    assert a.trace() == 0
    assert a.sum() == 2 * g.m
    for i, j in g.edges():
        assert a[i, j] == 1


@pytest.mark.parametrize("spec", ["path:1", "complete:8", "cycle:9", "gnp:17:0.5:3", "rook:4"])
def test_adjacency_matrix_matches_edge_loop(spec):
    g = corpus_graph(spec)
    ref = np.zeros((g.n, g.n), dtype=np.int64)
    for i, j in g.edges():
        ref[i, j] = ref[j, i] = 1
    a = me.adjacency_matrix(g)
    assert a.dtype == np.int64 and a.shape == (g.n, g.n)
    assert np.array_equal(a, ref)


def test_adjacency_matrix_of_empty_graph():
    assert me.adjacency_matrix(me.Graph.from_edges(0, [])).shape == (0, 0)


@pytest.mark.parametrize("spec", ["rook:4", "gnp:40:0.5:1"])
def test_analysis_builds_the_matrix_once(spec, monkeypatch):
    # Every graph is built by Graph._from_pairs, and analysis builds none.
    calls = []
    build = graphs.Graph._from_pairs

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(graphs.Graph, "_from_pairs", counted)
    g = me.generate_from_string(spec)
    me.analyze_graph(g)
    assert len(calls) == 1
    assert me.parse_graph6(me.write_graph6(g)) == g and len(calls) == 2


@pytest.mark.parametrize(
    "make",
    [
        lambda: corpus_graph("petersen"),
        lambda: me.parse_graph6("Bg"),
        lambda: me.parse_edge_list("n 3\n0 1\n1 2\n"),
    ],
)
def test_stored_matrix_is_read_only(make):
    g = make()
    assert g.matrix.dtype == np.uint8 and g.matrix.shape == (g.n, g.n)
    assert g.matrix.flags.writeable is False
    with pytest.raises(ValueError):
        g.matrix[0, 1] = 0


def test_graph_above_vertex_cap_builds_no_dense_matrix():
    n = 6000
    tracemalloc.start()
    try:
        g = me.Graph.from_edges(n, [(0, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.matrix is None and g.m == 1
    assert peak < n * n // 2


def test_graph_far_above_vertex_cap_is_validated_from_its_set_bits():
    # Validation there reads only the edge arrays, so a sparse graph past 2048**2 builds.
    n = TRACE_MAX_VERTICES**2 + 1
    g = me.Graph.from_edges(n, [(0, n - 1)])
    assert g.matrix is None and g.m == 1
    with pytest.raises(me.Graph6Error, match="graph too large to encode"):
        me.write_graph6(g)


def test_graph_above_vertex_cap_keeps_sorted_edges():
    n = TRACE_MAX_VERTICES + 1
    g = me.Graph.from_edges(n, [(n - 1, 3), (7, 2), (3, n - 1), (2, 7), (0, 5)], label="x")
    assert g.matrix is None
    assert list(g.edges()) == [(0, 5), (2, 7), (3, n - 1)]
    assert (g.m, g.degree(3), g.degree(n - 1), g.degree(1)) == (3, 1, 1, 0)
    assert g.has_edge(n - 1, 3) and g.has_edge(7, 2) and not g.has_edge(3, 7)
    assert g == me.Graph.from_edges(n, [(0, 5), (2, 7), (3, n - 1)])
    assert g != me.Graph.from_edges(n, [(0, 5), (2, 7)])
    assert hash(g) == hash(me.Graph.from_edges(n, [(3, n - 1), (7, 2), (5, 0)]))
    for search in (me.is_connected, me.bipartition):
        with pytest.raises(GraphError, match="exceeds the dense-matrix cap"):
            search(g)


def test_matrix_is_not_a_constructor_argument():
    # Graph.from_edges is the only public constructor.
    with pytest.raises(TypeError):
        me.Graph(2, matrix=np.ones((2, 2), np.uint8))
    with pytest.raises(TypeError):
        me.Graph(2, (2, 1))
    g = me.Graph.from_edges(2, [(1, 0)])
    assert g.matrix.tolist() == [[0, 1], [1, 0]]
    with pytest.raises(AttributeError):
        g.n = 3


def test_parse_edge_list_slow_path_builds_the_graph(monkeypatch):
    """If the byte tokenizer gives up, the per-line loop still returns the graph."""
    text = "n 4\n0 1\n\n2 1\n3 2\n"
    expected = me.parse_edge_list(text)
    monkeypatch.setattr(graphs, "_edge_pairs", lambda body, n: None)
    assert me.parse_edge_list(text) == expected == me.Graph.from_edges(4, [(0, 1), (2, 1), (3, 2)])


@pytest.mark.parametrize(
    "body",
    [
        "+2 1\n", "0_1 2\n", "00007 1\n", "1 2 3\n", "1\n2\n", "1 2\n3\n", "1\x0b2\n",
        "1\x1c2\n", "2 2\n", "8 1\n",
    ],
)
def test_byte_tokenizer_leaves_odd_input_to_the_line_loop(body):
    assert graphs._edge_pairs(body, 8) is None


def test_byte_tokenizer_reads_blanks_crlf_and_leading_zeros():
    # The body ends without a newline on a token two digits shorter than the widest.
    i, j = graphs._edge_pairs("\t0 1\r\n\n  0002\t\t7 \r\n\r\n6 0003\n123 4", 200)
    assert list(zip(i.tolist(), j.tolist())) == [(0, 1), (2, 7), (6, 3), (123, 4)]


def test_parse_edge_list_peak_memory_stays_small():
    g = me.generate_from_string("gnp:160:0.5:1")
    text = f"n {g.n}\n" + "".join(f"{i} {j}\n" for i, j in g.edges())
    tracemalloc.start()
    try:
        parsed = me.parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == g
    assert peak <= 1_000_000


def test_parse_edge_list_keeps_no_wide_copy_of_the_input():
    # An io.StringIO of the text, at 4 bytes a character, took the peak to 0.77 MB.
    g = me.generate_from_string("gnp:160:0.5:1")
    text = f"n {g.n}\n" + "".join(f"{i} {j}\n" for i, j in g.edges())
    tracemalloc.start()
    try:
        parsed = me.parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == g
    assert peak < 700_000


def test_parse_edge_list():
    g = me.parse_edge_list("n 5\n0 1\n1 2\n\n2 3\n")
    assert (g.n, g.m) == (5, 3)


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "empty edge-list"),
        ("5\n0 1\n", "line 1: malformed header"),
        ("n x\n", "line 1: malformed vertex count"),
        ("n -1\n", "line 1: vertex count must be non-negative"),
        ("n 3\n0\n", "line 2: malformed edge line"),
        ("n 3\n0 1 2\n", "line 2: malformed edge line"),
        ("n 3\n0 a\n", "line 2: malformed edge line"),
        ("n 3\n0 3\n", "line 2: edge \\(0, 3\\): vertex index out of range"),
        ("n 3\n0 1\n2 2\n", "line 3: edge \\(2, 2\\): self loop"),
    ],
)
def test_parse_edge_list_diagnostics(text, message):
    with pytest.raises(GraphError, match=message):
        me.parse_edge_list(text)


def test_parse_edge_list_refuses_header_above_vertex_cap():
    g = me.parse_edge_list(f"n {TRACE_MAX_VERTICES}\n0 1\n")
    assert (g.n, g.m) == (TRACE_MAX_VERTICES, 1)
    with pytest.raises(GraphError, match=f"line 1: n={TRACE_MAX_VERTICES + 1} exceeds .* cap"):
        me.parse_edge_list(f"n {TRACE_MAX_VERTICES + 1}\n0 1\n")


def test_is_connected():
    assert me.is_connected(corpus_graph("petersen"))
    assert me.is_connected(corpus_graph("complete:1"))
    assert not me.is_connected(corpus_graph("union:complete:2,complete:2"))


@pytest.mark.parametrize(
    "spec,connected",
    [
        ("path:2048", True),
        ("cycle:2048", True),
        ("union:cycle:5,cycle:5", False),  # no isolated vertex and m = n: the search decides
        ("union:cycle:1024,cycle:1024", False),
        ("union:path:1024,path:1024", False),  # m = n - 2
        ("union:complete:4,complete:1", False),  # an isolated vertex
    ],
)
def test_is_connected_on_long_paths_and_unions(spec, connected):
    assert me.is_connected(me.generate_from_string(spec)) is connected


@pytest.mark.parametrize("n", [0, 1])
def test_graphs_with_at_most_one_vertex_are_connected(n):
    assert me.is_connected(me.Graph.from_edges(n, [])) is True


@st.composite
def _random_tree(draw) -> me.Graph:
    """A random labelled tree on 1-12 vertices: m = n - 1, so only the search decides."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(n)))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    return me.Graph.from_edges(n, [(order[v], order[p]) for v, p in enumerate(parents, start=1)])


_connectivity_cases = st.one_of(
    st.builds(me.random_gnp, st.integers(0, 14), st.floats(0, 1), st.integers(0, 10_000)),
    _random_tree(),
    st.builds(
        me.disjoint_union,
        st.lists(
            st.one_of(
                _random_tree(),
                st.builds(me.cycle, st.integers(3, 6)),
                st.builds(me.complete, st.integers(1, 5)),
            ),
            max_size=4,
        ),
    ),
)


@given(_connectivity_cases)
def test_property_is_connected_matches_networkx(g):
    reference = nx.Graph()
    reference.add_nodes_from(range(g.n))
    reference.add_edges_from(g.edges())
    assert me.is_connected(g) is (g.n == 0 or nx.is_connected(reference))


def test_bipartition_even_cycle():
    left, right = me.bipartition(corpus_graph("cycle:4"))
    assert sorted(left + right) == [0, 1, 2, 3]
    assert set(left) == {0, 2} or set(left) == {1, 3}


def test_bipartition_odd_cycle_is_none():
    assert me.bipartition(corpus_graph("cycle:5")) is None


def test_bipartition_covers_all_components():
    g = corpus_graph("union:star:3,path:4")
    parts = me.bipartition(g)
    assert parts is not None
    left, right = parts
    assert sorted(left + right) == list(range(g.n))
    for i, j in g.edges():
        assert (i in left) != (j in left)


@st.composite
def _random_bipartite(draw) -> me.Graph:
    """A random subgraph of K(a, b) with its vertices shuffled, so the parts interleave."""
    a, b = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    order = draw(st.permutations(range(a + b)))
    pairs = [(i, j) for i in range(a) for j in range(a, a + b)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return me.Graph.from_edges(a + b, [(order[i], order[j]) for i, j in edges])


_bipartition_cases = st.one_of(
    st.builds(me.random_gnp, st.integers(0, 14), st.floats(0, 1), st.integers(0, 10_000)),
    _random_bipartite(),
    st.builds(
        me.disjoint_union,
        st.lists(
            st.one_of(
                _random_bipartite(),
                st.builds(me.cycle, st.integers(1, 4).map(lambda h: 2 * h + 1)),
                st.builds(me.Graph.from_edges, st.integers(1, 3), st.just([])),
            ),
            max_size=4,
        ),
    ),
)


@given(_bipartition_cases)
def test_property_bipartition_matches_depth_first_reference(g):
    assert me.bipartition(g) == reference_bipartition(g)


def test_is_regular():
    assert me.is_regular(corpus_graph("petersen")) == 3
    assert me.is_regular(corpus_graph("cycle:7")) == 2
    assert me.is_regular(corpus_graph("star:4")) is None
    assert me.is_regular(corpus_graph("complete:1")) == 0


@pytest.mark.parametrize("spec", CORPUS_SPECS)
def test_corpus_degree_sum_is_even(spec):
    g = corpus_graph(spec)
    assert sum(g.degrees()) == 2 * g.m


@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ).filter(lambda e: e[0] != e[1]),
                max_size=20,
            ),
        )
    )
)
def test_random_graphs_round_trip_edges(n_and_edges):
    n, edges = n_and_edges
    g = me.Graph.from_edges(n, list(edges))
    rebuilt = me.Graph.from_edges(n, list(g.edges()))
    assert rebuilt == g
    assert all(i < j for i, j in g.edges())
