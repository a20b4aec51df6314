"""graph6 codec against hand fixtures and the networkx reference codec."""

import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import menergy as me
from menergy.graph6 import Graph6Error, MAX_VERTICES, graph6_order

from conftest import CORPUS_SPECS, corpus_graph


def nx_reference(g: me.Graph) -> str:
    """Encode through networkx to cross-check our writer."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.to_graph6_bytes(h, header=False).decode().strip()


# Hand-decoded fixtures: "?" empty graph on 0 vertices, "@" on 1,
# "A_" the single edge, "D?{" the 5-vertex star with centre 4.
@pytest.mark.parametrize(
    "text,n,edges",
    [
        ("?", 0, []),
        ("@", 1, []),
        ("A?", 2, []),
        ("A_", 2, [(0, 1)]),
        ("Bg", 3, [(0, 1), (1, 2)]),
        ("D?{", 5, [(0, 4), (1, 4), (2, 4), (3, 4)]),
    ],
)
def test_parse_fixtures(text, n, edges):
    g = me.parse_graph6(text)
    assert g.n == n
    assert sorted(g.edges()) == sorted(edges)


def test_write_fixtures():
    assert me.write_graph6(me.complete(2)) == "A_"
    assert me.write_graph6(me.Graph.from_edges(0, [])) == "?"
    assert me.write_graph6(me.Graph.from_edges(1, [])) == "@"


def test_header_tolerated_never_emitted():
    g = me.parse_graph6(">>graph6<<A_")
    assert g.m == 1
    assert not me.write_graph6(g).startswith(">>")


def test_long_form_size_field():
    g = me.complete(63)
    text = me.write_graph6(g)
    assert text.startswith(chr(126))
    assert me.parse_graph6(text) == g
    assert nx_reference(g) == text


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "empty graph6"),
        ("A", "truncated adjacency bits"),
        ("A_x", "trailing data"),
        ("Aa", "nonzero padding"),
        ("~", "truncated size field"),
        ("~~", "6-byte size fields"),
        ("A!", "outside 63..126"),
        (">>graph5<<A_", "bad header"),
    ],
)
def test_parse_rejects(text, message):
    with pytest.raises(Graph6Error, match=message):
        me.parse_graph6(text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "empty graph6"),
        ("~", "truncated size field"),
        ("~~", "6-byte size fields"),
        ("~?!?", "at position 2 .* outside 63..126"),
        (">>graph5<<A_", "bad header"),
    ],
)
def test_size_field_read_rejects_what_the_parser_rejects_first(text, message):
    for read in (graph6_order, me.parse_graph6):
        with pytest.raises(Graph6Error, match=message):
            read(text)


@pytest.mark.parametrize("n", [0, 1, 62, 63, 3000])
def test_size_field_read_gives_the_order(n):
    text = me.write_graph6(me.Graph.from_edges(n, []))
    assert graph6_order(">>graph6<<" + text + "\r\n") == n
    # The body is not read: a truncated line still declares its order.
    assert graph6_order(text[: 1 if n <= 62 else 4]) == n


def test_round_trip_above_vertex_cap():
    # No dense matrix exists here: encoding reads the edge arrays and decoding
    # builds them without one.
    g = me.generate_from_string("cycle:3000")
    assert g.matrix is None
    assert me.parse_graph6(me.write_graph6(g)) == g


def test_write_rejects_oversized():
    # Construct the shell without materialising a huge graph: n just past the
    # 3-byte size field cap.
    class Shell:
        n = MAX_VERTICES + 1

    with pytest.raises(Graph6Error, match="too large"):
        me.write_graph6(Shell())


@pytest.mark.parametrize("spec", CORPUS_SPECS)
def test_corpus_round_trip(spec):
    g = corpus_graph(spec)
    text = me.write_graph6(g)
    assert me.parse_graph6(text) == g
    assert nx_reference(g) == text


@pytest.mark.parametrize("spec", ["petersen", "heawood", "gnp:24:0.5:4", "rook:4"])
def test_decoder_matches_networkx(spec):
    g = corpus_graph(spec)
    text = me.write_graph6(g)
    h = nx.from_graph6_bytes(text.encode())
    assert h.number_of_nodes() == g.n
    assert sorted(tuple(sorted(e)) for e in h.edges()) == sorted(g.edges())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.randoms(use_true_random=False))
def test_random_round_trip(n, rng):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    g = me.Graph.from_edges(n, edges)
    text = me.write_graph6(g)
    assert me.parse_graph6(text) == g
    assert nx_reference(g) == text


def test_writer_holds_the_line_at_most_twice():
    # One uint8 buffer, dropped before its bytes become the str: never three copies.
    g = me.generate_from_string("cycle:6000")
    tracemalloc.start()
    try:
        line = me.write_graph6(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(line) == 4 + (6000 * 5999 // 2 + 5) // 6
    assert peak < 2.5 * len(line)
