"""Immutable simple undirected graphs stored as adjacency bitsets."""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    ``adj[i]`` is an integer bitmask whose bit ``j`` is set iff ``{i, j}`` is
    an edge.  The relation must be symmetric with an empty diagonal; both are
    validated at construction.  ``label`` is carried for reporting only and
    does not take part in equality.
    """

    n: int
    adj: tuple[int, ...]
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise GraphError("adjacency length does not match vertex count")
        for i, row in enumerate(self.adj):
            if row >> self.n:
                raise GraphError(f"vertex {i}: neighbour index out of range")
            if (row >> i) & 1:
                raise GraphError(f"vertex {i}: self loop")
        for i, row in enumerate(self.adj):
            for j in bit_indices(row):
                if not (self.adj[j] >> i) & 1:
                    raise GraphError(f"adjacency not symmetric at ({i}, {j})")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]], label: str = "") -> "Graph":
        """Build a graph from an edge list; duplicate edges collapse."""
        rows = [0] * n
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise GraphError(f"edge ({i}, {j}): vertex index out of range for n={n}")
            if i == j:
                raise GraphError(f"edge ({i}, {j}): self loop")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return Graph(n, tuple(rows), label)

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.adj[i] >> j) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (i, j) with i < j, in lexicographic order."""
        for i, row in enumerate(self.adj):
            for k in bit_indices(row >> (i + 1)):
                yield i, i + 1 + k


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix with int64 entries."""
    width = (g.n + 7) // 8
    packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in g.adj), np.uint8)
    bits = np.unpackbits(packed.reshape(g.n, width), axis=1, count=g.n, bitorder="little")
    return bits.astype(np.int64)


def parse_edge_list(text: str) -> Graph:
    """Parse the line-oriented edge-list format.

    The first non-empty line is ``n <count>``; every following non-empty line
    is an edge ``i j`` with 0-based endpoints.  Duplicate edges collapse.
    Diagnostics name the 1-based line number.
    """
    numbered = [
        (idx, ln.strip()) for idx, ln in enumerate(text.splitlines(), start=1) if ln.strip()
    ]
    if not numbered:
        raise GraphError("empty edge-list input")
    head_no, head_line = numbered[0]
    head = head_line.split()
    if len(head) != 2 or head[0] != "n":
        raise GraphError(f"line {head_no}: malformed header {head_line!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise GraphError(f"line {head_no}: malformed vertex count {head[1]!r}") from None
    if n < 0:
        raise GraphError(f"line {head_no}: vertex count must be non-negative")
    if n > TRACE_MAX_VERTICES:
        raise GraphError(f"line {head_no}: n={n} exceeds the dense-matrix cap {TRACE_MAX_VERTICES}")
    edges = []
    for lineno, ln in numbered[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: malformed edge line {ln!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: malformed edge line {ln!r}") from None
        if not (0 <= i < n and 0 <= j < n):
            raise GraphError(f"line {lineno}: edge ({i}, {j}): vertex index out of range for n={n}")
        if i == j:
            raise GraphError(f"line {lineno}: edge ({i}, {j}): self loop")
        edges.append((i, j))
    return Graph.from_edges(n, edges)


def is_connected(g: Graph) -> bool:
    """True for graphs with at most one vertex and for connected graphs."""
    if g.n <= 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        reach = 0
        for v in bit_indices(frontier):
            reach |= g.adj[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


def bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """A two-colouring (left, right) covering every component, or None."""
    colour = [-1] * g.n
    for start in range(g.n):
        if colour[start] != -1:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in bit_indices(g.adj[v]):
                if colour[w] == -1:
                    colour[w] = colour[v] ^ 1
                    stack.append(w)
                elif colour[w] == colour[v]:
                    return None
    left = tuple(i for i in range(g.n) if colour[i] == 0)
    right = tuple(i for i in range(g.n) if colour[i] == 1)
    return left, right


def is_bipartite(g: Graph) -> bool:
    return bipartition(g) is not None


def is_regular(g: Graph) -> int | None:
    """The common degree if every vertex has the same degree, else None."""
    degs = set(g.degrees())
    if len(degs) == 1:
        return degs.pop()
    return None
