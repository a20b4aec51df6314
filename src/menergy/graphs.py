"""Immutable simple undirected graphs, each held as one validated uint8 adjacency matrix."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

TRACE_MAX_VERTICES = 2048  # largest n any dense n x n kernel or edge-list header accepts


class GraphError(ValueError):
    """Structurally invalid graph input: self loops, bad indices, malformed text."""


class CapExceededError(GraphError):
    """A request outside the supported exact-arithmetic size caps."""


def check_order(n: int) -> None:
    """Refuse n vertices above TRACE_MAX_VERTICES, before any n x n work."""
    if n > TRACE_MAX_VERTICES:
        raise CapExceededError(f"n={n} exceeds the dense-matrix cap {TRACE_MAX_VERTICES}")


@dataclass(frozen=True, eq=False, init=False)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``; build one with ``Graph.from_edges``.

    ``matrix`` is the read-only uint8 adjacency matrix, symmetric with an empty
    diagonal by construction.  Above TRACE_MAX_VERTICES, where only graph6 output
    needs the graph, it is None and the graph keeps its edges as sorted index arrays.
    ``label`` is carried for reporting only and takes no part in equality.
    """

    n: int
    label: str
    matrix: np.ndarray | None = field(repr=False)
    _ends: tuple[np.ndarray, np.ndarray] | None = field(repr=False)
    _degrees: tuple[int, ...] = field(repr=False)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]], label: str = "") -> "Graph":
        """Build a graph from integer vertex pairs (numpy too), or an (m, 2) integer array.

        Duplicate edges collapse.  The first pair out of range or on the diagonal is named.
        """
        ends = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if ends.size == 0:
            ends = np.zeros((0, 2), np.int64)
        if ends.dtype.kind not in "iu" or ends.ndim != 2 or ends.shape[1] != 2:
            raise TypeError(f"edges must be integer pairs, got {ends.dtype} of shape {ends.shape}")
        i, j = ends.astype(np.int64).T
        if (bad := (i < 0) | (i >= n) | (j < 0) | (j >= n) | (i == j)).any():
            i, j = ends[bad.argmax()].tolist()
            if i == j and 0 <= i < n:
                raise GraphError(f"edge ({i}, {j}): self loop")
            raise GraphError(f"edge ({i}, {j}): vertex index out of range for n={n}")
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        return Graph._from_pairs(n, i, j, label)

    @staticmethod
    def _from_pairs(n: int, i: np.ndarray, j: np.ndarray, label: str = "") -> "Graph":
        """The graph with edges {i[k], j[k]}, given as valid index arrays: the one constructor."""
        if n <= TRACE_MAX_VERTICES:
            flat, ends = np.zeros(n * n, np.uint8), None
            flat[i * n + j] = flat[j * n + i] = 1  # flat indices: cheaper than 2-D fancy indexing
            flat.flags.writeable = False
            matrix = flat.reshape(n, n)
            degrees = matrix.sum(axis=1)
        else:  # each edge once as (low, high), sorted: the unique codes low n + high, read back
            codes = np.unique(np.minimum(i, j) * np.int64(n) + np.maximum(i, j))
            matrix, ends = None, divmod(codes, n)
            degrees = np.bincount(np.concatenate(ends), minlength=n)
        g = object.__new__(Graph)  # frozen: the fields are written past __setattr__
        g.__dict__.update(
            n=n, label=label, matrix=matrix, _ends=ends, _degrees=tuple(degrees.tolist())
        )
        return g

    def _key(self) -> tuple[int, bytes]:
        edges = self.matrix if self.matrix is not None else np.concatenate(self._ends)
        return self.n, edges.tobytes()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(self._degrees) // 2

    def degree(self, i: int) -> int:
        return self._degrees[i]

    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    def has_edge(self, i: int, j: int) -> bool:
        if self.matrix is not None:
            return bool(self.matrix[i, j])
        low, high = self._ends
        return bool(((low == min(i, j)) & (high == max(i, j))).any())

    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The ends (i, j) of every edge as two index arrays, i < j, in lexicographic order."""
        return self._ends if self.matrix is None else np.nonzero(np.triu(self.matrix, 1))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (i, j) with i < j, in lexicographic order."""
        i, j = self._pairs()
        return zip(i.tolist(), j.tolist())


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
    return Graph._from_pairs(n, *np.array(edges, np.int64).reshape(-1, 2).T)


def _search(g: Graph, root: int) -> tuple[np.ndarray, list[np.ndarray], int]:
    """Breadth-first search from root: (seen, layers, size) of root's component.

    ``layers`` holds the boolean masks of the vertices at distance 1, 2, ... from root,
    ``seen`` their union with root, and ``size`` its count.  Each step expands only the
    newest layer, so a search costs O(n^2) on any graph, long paths too.  Every edge
    joins two vertices of one layer or of consecutive layers.
    """
    adj = g.matrix.view(bool)
    frontier = adj[root]
    seen = frontier.copy()
    seen[root] = True
    layers, size = [frontier], np.count_nonzero(seen)
    while size < g.n:
        frontier = np.logical_or.reduce(adj[frontier]) > seen  # neighbours not seen before
        if not (count := np.count_nonzero(frontier)):
            break
        layers.append(frontier)
        size += count
        seen |= frontier
    return seen, layers, size


def is_connected(g: Graph) -> bool:
    """True for graphs with at most one vertex and for connected graphs."""
    check_order(g.n)
    if g.n <= 1:
        return True
    # A connected graph has no isolated vertex and at least n - 1 edges.
    degrees = g.degrees()
    if min(degrees) == 0 or sum(degrees) < 2 * (g.n - 1):
        return False
    return bool(_search(g, 0)[2] == g.n)


def bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """A two-colouring (left, right) covering every component, or None if g has an odd cycle.

    Each vertex takes the side of its depth parity in the breadth-first layering from the
    least vertex of its component, so that vertex goes left; both tuples are ascending.
    The colouring is proper unless an edge joins two vertices of one layer.
    """
    check_order(g.n)
    right, unseen = np.zeros(g.n, bool), np.ones(g.n, bool)
    while unseen.any():
        seen, layers, _ = _search(g, int(unseen.argmax()))
        right |= np.logical_or.reduce(layers[::2])  # odd depths: 1, 3, ...
        unseen &= ~seen
    adj = g.matrix.view(bool)
    if any(adj[side][:, side].any() for side in (right, ~right)):
        return None
    return tuple(np.flatnonzero(~right).tolist()), tuple(np.flatnonzero(right).tolist())


def is_regular(g: Graph) -> int | None:
    """The common degree if every vertex has the same degree, else None."""
    degs = set(g.degrees())
    if len(degs) == 1:
        return degs.pop()
    return None
