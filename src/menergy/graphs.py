"""Immutable simple undirected graphs: adjacency bitsets plus one validated uint8 matrix."""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Iterator

import numpy as np

TRACE_MAX_VERTICES = 2048  # largest n any dense n x n kernel or edge-list header accepts


class GraphError(ValueError):
    """Structurally invalid graph input: self loops, bad indices, malformed text."""


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the positions of set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def unpack_rows(adj: tuple[int, ...], n: int) -> np.ndarray:
    """The bitset rows ``adj`` (each below 2**n) as a len(adj) x n uint8 block."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in adj), np.uint8)
    return np.unpackbits(packed.reshape(len(adj), width), axis=1, count=n, bitorder="little")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    ``adj[i]`` is an integer bitmask whose bit ``j`` is set iff ``{i, j}`` is
    an edge.  The relation must be symmetric with an empty diagonal; both are
    validated at construction.  ``label`` is carried for reporting only and
    does not take part in equality.  ``matrix`` is the read-only uint8
    adjacency matrix that validation unpacks, None above TRACE_MAX_VERTICES.
    """

    n: int
    adj: tuple[int, ...]
    label: str = field(default="", compare=False)
    matrix: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _degrees: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise GraphError("adjacency length does not match vertex count")
        # Range and diagonal are checked per row before unpacking, in row order.
        for i, row in enumerate(self.adj):
            if row >> self.n:
                raise GraphError(f"vertex {i}: neighbour index out of range")
            if (row >> i) & 1:
                raise GraphError(f"vertex {i}: self loop")
        if self.n <= TRACE_MAX_VERTICES:
            a = unpack_rows(self.adj, self.n)
            a.flags.writeable = False
            object.__setattr__(self, "matrix", a)
            one_way = np.argwhere(a > a.T)
        else:  # no n x n matrix: each set bit is checked against its mirror
            one_way = [(i, j) for i, row in enumerate(self.adj) for j in bit_indices(row)
                       if not (self.adj[j] >> i) & 1]
        if len(one_way):
            raise GraphError(f"adjacency not symmetric at ({one_way[0][0]}, {one_way[0][1]})")
        object.__setattr__(self, "_degrees", tuple(row.bit_count() for row in self.adj))

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]], label: str = "") -> "Graph":
        """Build a graph from integer (numpy too) vertex pairs; duplicate edges collapse."""
        rows = [0] * n
        for edge in edges:
            i, j = map(operator.index, edge)
            if not (0 <= i < n and 0 <= j < n):
                raise GraphError(f"edge ({i}, {j}): vertex index out of range for n={n}")
            if i == j:
                raise GraphError(f"edge ({i}, {j}): self loop")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return Graph(n, tuple(rows), label)

    @staticmethod
    def _from_pairs(n: int, i: np.ndarray, j: np.ndarray) -> "Graph":
        """The graph with edges {i[k], j[k]}, given as valid index arrays."""
        if n > TRACE_MAX_VERTICES:
            return Graph.from_edges(n, zip(i.tolist(), j.tolist()))
        a = np.zeros((n, n), np.uint8)
        a[i, j] = a[j, i] = 1
        packed = np.packbits(a, axis=1, bitorder="little")
        return Graph(n, tuple(map(int.from_bytes, packed, repeat("little"))))

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(self._degrees) // 2

    def degree(self, i: int) -> int:
        return self._degrees[i]

    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.adj[i] >> j) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (i, j) with i < j, in lexicographic order."""
        for i, row in enumerate(self.adj):
            for k in bit_indices(row >> (i + 1)):
                yield i, i + 1 + k


def _edge_pairs(body: str, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The endpoints in an ASCII edge-list body, or None where the line loop must read it.

    Accepted: only digits and " \\t\\r\\n", 0 or 2 tokens per line, at most 4 digits a token
    (every index below TRACE_MAX_VERTICES fits), endpoints below n and no self loop.
    """
    raw = f" {body} ".encode("ascii")
    refused = len(raw) >= 2**31 or raw.translate(None, b"0123456789 \t\r\n")  # int32 offsets
    v = np.frombuffer(raw, np.uint8) - 48  # digits 0-9; blanks wrap to 217 and up, "\n" to 218
    bounds = np.flatnonzero(np.diff(v < 10)).astype(np.int32)  # int32 halves the token arrays
    first, size = bounds[0::2], bounds[1::2] - bounds[0::2]  # the byte before a token; its length
    # Tokens per line: differences of the token counts before each newline, each 0 or 2.
    count = np.diff(np.searchsorted(first, np.flatnonzero(v == 218)), prepend=0, append=len(first))
    if refused or size.max(initial=0) > 4 or (count * (count - 2)).any():
        return None
    ends = v[first + 1].astype(np.int32)
    for k in range(2, size.max(initial=0) + 1):  # Horner; take() clips past the last byte
        np.add(10 * ends, v.take(first + k, mode="clip"), out=ends, where=size >= k)
    if ends.max(initial=-1) >= n or (ends[0::2] == ends[1::2]).any():
        return None
    return ends[0::2], ends[1::2]


def parse_edge_list(text: str) -> Graph:
    """Parse the line-oriented edge-list format.

    The first non-empty line is ``n <count>``; every following non-empty line
    is an edge ``i j`` with 0-based endpoints.  Duplicate edges collapse.
    Lines end at ``\n`` only.  Diagnostics name the 1-based line number.
    The body is tokenized in numpy from its bytes; what that refuses is read line by
    line with ``int``, to name the first bad line or accept ``+1``, ``0_7`` or ``00007``.
    """
    if not (first := re.search(r"\S", text)):  # \S: what str.split() keeps
        raise GraphError("empty edge-list input")
    start = text.rfind("\n", 0, first.start()) + 1
    end = len(text) if (end := text.find("\n", start)) < 0 else end
    head_no, head = text.count("\n", 0, start) + 1, (line := text[start:end]).split()
    if len(head) != 2 or head[0] != "n":
        raise GraphError(f"line {head_no}: malformed header {line.strip()!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise GraphError(f"line {head_no}: malformed vertex count {head[1]!r}") from None
    if n < 0:
        raise GraphError(f"line {head_no}: vertex count must be non-negative")
    if n > TRACE_MAX_VERTICES:
        raise GraphError(f"line {head_no}: n={n} exceeds the dense-matrix cap {TRACE_MAX_VERTICES}")
    body = text[end + 1 :]
    if body.isascii() and (ends := _edge_pairs(body, n)) is not None:
        return Graph._from_pairs(n, *ends)
    edges = []
    for lineno, ln in enumerate(body.split("\n"), start=head_no + 1):
        if not (parts := ln.split()):
            continue
        try:
            i, j = map(int, parts)
        except ValueError:  # a malformed token, or not two of them
            raise GraphError(f"line {lineno}: malformed edge line {ln.strip()!r}") from None
        if not (0 <= i < n and 0 <= j < n):
            raise GraphError(f"line {lineno}: edge ({i}, {j}): vertex index out of range for n={n}")
        if i == j:
            raise GraphError(f"line {lineno}: edge ({i}, {j}): self loop")
        edges.append((i, j))
    return Graph.from_edges(n, edges)


def _layers(g: Graph, root: int) -> Iterator[int]:
    """Breadth-first layers of root's component as bitsets: the vertices at distance 0, 1, ...

    Every edge joins two vertices of one layer or of consecutive layers.
    """
    seen = frontier = 1 << root
    while frontier:
        yield frontier
        reach = 0
        for v in bit_indices(frontier):
            reach |= g.adj[v]
        frontier = reach & ~seen
        seen |= frontier


def is_connected(g: Graph) -> bool:
    """True for graphs with at most one vertex and for connected graphs."""
    return g.n <= 1 or sum(_layers(g, 0)) == (1 << g.n) - 1  # disjoint layers: sum is union


def bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """A two-colouring (left, right) covering every component, or None if g has an odd cycle.

    Each vertex takes the side of its depth parity in the breadth-first layering from the
    least vertex of its component, so that vertex goes left; both tuples are ascending.
    The colouring is proper unless an edge joins two vertices of one layer.
    """
    sides, unseen = [0, 0], (1 << g.n) - 1
    while unseen:
        for depth, layer in enumerate(_layers(g, (unseen & -unseen).bit_length() - 1)):
            sides[depth & 1] |= layer
            unseen ^= layer
    if any(g.adj[v] & side for side in sides for v in bit_indices(side)):
        return None
    return tuple(bit_indices(sides[0])), tuple(bit_indices(sides[1]))


def is_regular(g: Graph) -> int | None:
    """The common degree if every vertex has the same degree, else None."""
    degs = set(g.degrees())
    if len(degs) == 1:
        return degs.pop()
    return None
