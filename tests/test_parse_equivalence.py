"""The parsers and Graph.from_edges against the reference loops in conftest.

Each property draws input, runs the package and the reference, and requires
the same graph or the same exception type with the same message.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import menergy as me
from menergy.graph6 import Graph6Error
from menergy.graphs import TRACE_MAX_VERTICES, _edge_pairs

from conftest import reference_from_edges, reference_parse_edge_list, reference_parse_graph6

# Characters str.split() and str.strip() treat as whitespace, "\n" aside:
# ASCII blanks, CR, and the separators 0x1c-0x1f.
BLANKS = st.sampled_from([" ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"])
GAP = st.lists(BLANKS, min_size=1, max_size=3).map("".join)
PAD = st.lists(BLANKS, max_size=2).map("".join)


def outcome(parse, *args):
    """("ok", result) or (exception type, message) for the parser errors."""
    try:
        return "ok", parse(*args)
    except (me.GraphError, Graph6Error) as err:
        return type(err), str(err)


def as_edges(g: me.Graph) -> tuple[int, tuple[tuple[int, int], ...]]:
    return g.n, tuple(g.edges())


def constructed(n, edges):
    return as_edges(me.Graph.from_edges(n, edges))


@st.composite
def integer_text(draw, low, high):
    """An integer in [low, high] as int() reads it: signs, leading zeros, underscores."""
    value = draw(st.integers(low, high))
    sign = "-" if value < 0 else draw(st.sampled_from(["", "", "+"]))
    digits = str(abs(value))
    if len(digits) > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, len(digits) - 1))
        digits = digits[:cut] + "_" + digits[cut:]
    return sign + "0" * draw(st.integers(0, 2)) + digits


ODD_TOKENS = st.sampled_from(
    ["x", "n", "-", "+", "_1", "1_", "1__0", "0x1", "1.0", "9" * 25, "-" + "9" * 25, "\x00"]
)


@st.composite
def edge_list_text(draw):
    """Edge lists in every spelling int() and split() accept; one in four also
    carries arbitrary lines, and one in ten an arbitrary header."""
    n = draw(st.integers(0, 12))
    token = st.one_of(integer_text(-2, n + 1), ODD_TOKENS)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    noisy = not draw(st.integers(0, 3))

    def line(tokens):
        gaps = [draw(GAP) for _ in tokens[1:]] + [""]
        return draw(PAD) + "".join(t + g for t, g in zip(tokens, gaps)) + draw(PAD)

    def edge_line():
        kind = draw(st.sampled_from(["edge", "edge", "blank", "any" if noisy else "edge"]))
        if kind == "edge" and pairs:
            i, j = draw(st.sampled_from(pairs))
            return line([draw(integer_text(i, i)), draw(integer_text(j, j))])
        if kind == "any":
            return line(draw(st.lists(token, max_size=3)))
        return draw(PAD)

    if draw(st.integers(0, 9)):
        header = line(["n", draw(integer_text(n, n))])
    else:
        header = line(draw(st.lists(st.one_of(token, st.just("n")), max_size=3)))
    body = [edge_line() for _ in range(draw(st.integers(0, 10)))]
    lead = [draw(PAD) for _ in range(draw(st.integers(0, 2)))]
    return "\n".join(lead + [header] + body) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=400, deadline=None)
@given(edge_list_text())
def test_edge_list_parser_matches_reference(text):
    got = outcome(lambda t: as_edges(me.parse_edge_list(t)), text)
    assert got == outcome(reference_parse_edge_list, text)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12), st.data())
def test_edge_list_error_names_the_first_bad_line(n, data):
    # One bad line among good ones, so the parser's error path must find it.
    good = [f"{i} {j}" for i in range(n) for j in range(n) if i != j] or ["0 0"]
    lines = data.draw(st.lists(st.sampled_from(good), min_size=1, max_size=8))
    bad = data.draw(st.sampled_from([f"{n} 0", "0 0", "-1 0", "1", "1 2 3", "a b", "1_ 2"]))
    lines.insert(data.draw(st.integers(0, len(lines))), bad)
    text = f"n {n}\n" + "\n".join(lines)
    got = outcome(lambda t: as_edges(me.parse_edge_list(t)), text)
    assert got == outcome(reference_parse_edge_list, text)


def graph6_text(n: int, bits: list[int]) -> str:
    """graph6 from a column-ordered upper-triangle bit list, independent of the package."""
    head = [n] if n <= 62 else [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    bits = bits + [0] * (-len(bits) % 6)
    body = [int("".join(map(str, bits[k:k + 6])), 2) for k in range(0, len(bits), 6)]
    return "".join(chr(v + 63) for v in head + body)


# What graph6 lines may carry around them, plus one separator it must reject.
GRAPH6_PAD = st.lists(st.sampled_from(list(" \t\r\n\x0b\x0c\x1c")), max_size=2).map("".join)
GRAPH6_NOISE = st.sampled_from(
    [chr(c) for c in range(32, 128)] + list("\t\r\x00\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0Ā")
)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 70), st.data())
def test_graph6_parser_matches_reference(n, data):
    nbits = n * (n - 1) // 2
    mask = data.draw(st.integers(0, 2**nbits - 1))
    bits = [(mask >> k) & 1 for k in range(nbits)]
    chars = list(graph6_text(n, bits))
    for _ in range(data.draw(st.integers(0, 2))):
        op = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        pos = data.draw(st.integers(0, len(chars)))
        if op == "insert":
            chars.insert(pos, data.draw(GRAPH6_NOISE))
        elif pos < len(chars) and op == "replace":
            chars[pos] = data.draw(GRAPH6_NOISE)
        elif pos < len(chars):
            del chars[pos]
    head = data.draw(st.sampled_from(["", "", "", ">>graph6<<", ">>graph6<<", ">>graph5<<", ">>"]))
    text = data.draw(GRAPH6_PAD) + head + "".join(chars) + data.draw(GRAPH6_PAD)
    got = outcome(lambda t: as_edges(me.parse_graph6(t)), text)
    assert got == outcome(reference_parse_graph6, text)


@st.composite
def edge_pairs(draw):
    """A shuffled G(n, p) edge list; pairs reversed, repeated, on the diagonal or out of range."""
    n = draw(st.integers(0, 9))
    g = me.random_gnp(n, draw(st.sampled_from([0.3, 0.7])), draw(st.integers(0, 5)))
    edges = draw(st.permutations(list(g.edges())))
    edges = [(j, i) if draw(st.booleans()) else (i, j) for i, j in edges]
    for _ in range(draw(st.integers(0, 3))):
        # Any pair in -2..n+1 repeats an edge, or sets the diagonal, or leaves the range.
        pair = draw(st.integers(-2, n + 1)), draw(st.integers(-2, n + 1))
        edges.insert(draw(st.integers(0, len(edges))), pair)
    return draw(st.sampled_from([n] * 9 + [-1])), edges


@settings(max_examples=400, deadline=None)
@given(edge_pairs())
def test_graph_validation_matches_reference(n_edges):
    assert outcome(constructed, *n_edges) == outcome(reference_from_edges, *n_edges)


@pytest.mark.parametrize(
    "bits",
    [
        [],
        [(0, 2999), (2999, 0)],
        [(2500, 10)],
        [(2500, 10), (2999, 1), (1, 2999)],
        [(2999, 1), (100, 2100)],
        [(7, 7)],
        [(2048, 2048)],
    ],
)
def test_validation_above_vertex_cap_matches_reference(bits):
    # Above the cap the graph keeps its edges as sorted index arrays, not a matrix.
    assert outcome(constructed, 3000, bits) == outcome(reference_from_edges, 3000, bits)


PAD_ASCII = st.sampled_from(["", "", "", " ", "\t", "\r"])


@st.composite
def wide_edge_list_text(draw):
    """Edge lists on up to TRACE_MAX_VERTICES vertices, where tokens run to 4 digits.

    Tokens carry up to 4 leading zeros, so some pass 4 digits; lines end in
    LF or CRLF and are split by spaces or tabs, with blank lines between
    them.  Some inputs lack the final newline, name vertex n, end on a self
    loop or hold the non-ASCII blank U+2003, which str.split() takes as a
    separator.
    """
    n = draw(st.integers(1, TRACE_MAX_VERTICES))
    vertex = st.integers(0, n - 1)
    zeros = draw(st.sampled_from([0, 0, 1, 2, 4]))  # leading zeros per token, at most

    def rare():
        return not draw(st.integers(0, 7))

    def token(value):
        return "0" * draw(st.integers(0, zeros)) + str(value)

    def line(i, j):
        gap = draw(st.sampled_from([" ", " ", "\t", "  ", " \t "]))
        return draw(PAD_ASCII) + token(i) + gap + token(j) + draw(PAD_ASCII)

    lines = []
    for _ in range(draw(st.integers(0, 30))):
        i, j = draw(vertex), draw(vertex)
        lines.append(line(i, j) if i != j else "")
    if rare():
        lines.insert(draw(st.integers(0, len(lines))), line(n, draw(vertex)))
    if rare():
        i = draw(vertex)
        lines.append(line(i, i))
    if rare():
        k = draw(st.integers(0, len(lines)))
        lines.insert(k, f"{token(draw(vertex))}\u2003{token(draw(vertex))}")
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n"])) for _ in lines]
    body = "".join(ln + end for ln, end in zip(lines, ends))
    if rare() and body:
        body = body.rstrip("\r\n")
    return f"n {n}\n" + body


@settings(max_examples=150, deadline=None)
@given(wide_edge_list_text())
def test_wide_edge_list_parser_matches_reference(text):
    got = outcome(lambda t: as_edges(me.parse_edge_list(t)), text)
    assert got == outcome(reference_parse_edge_list, text)


def test_random_edge_list_at_the_vertex_cap_matches_reference():
    rng = random.Random(2048)
    n = TRACE_MAX_VERTICES
    pairs = {tuple(rng.sample(range(n), 2)) for _ in range(5000)}
    body = "".join(f"{i} {j}\n" for i, j in sorted(pairs))
    # Every index fits in 4 digits, so the byte tokenizer reads all of it.
    assert _edge_pairs(body, n) is not None
    g = me.parse_edge_list(f"n {n}\n" + body)
    assert as_edges(g) == reference_parse_edge_list(f"n {n}\n" + body)
    assert g == me.Graph.from_edges(n, pairs)
