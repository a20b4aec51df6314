"""Shared corpus and reference oracles for the test suite.

Two tiers of graphs: CORPUS_SPECS is a hand-picked list covering every
generator family plus the structural corner cases (edgeless, disconnected,
bipartite, clamped tangency), and the seeded G(n, p) batch drives the
property sweeps.  Spectra and summaries are cached per session because the
eigensolver would otherwise dominate collection time.

The oracles here deliberately avoid the code paths they check: closed walks
are counted by depth-first enumeration rather than matrix powers,
quadrilaterals by testing all three pairings of every 4-subset, two-colourings
by a stack depth-first search rather than breadth-first layers, the
parsers and Graph.from_edges by the per-line, per-bit and per-edge loops they
replaced, Gauss nodes by the three-np.diag Jacobi matrix that one filled
array replaced, and energies by eigenpairs from numpy.linalg.eigh, checked by
their residual, where menergy.spectral reads eigenvalues alone.
"""

import itertools
import math
import operator
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import menergy as me
from menergy.graph6 import HEADER, MAX_VERTICES, WHITESPACE, Graph6Error
from menergy.graphs import TRACE_MAX_VERTICES

CORPUS_SPECS = [
    "complete:1",
    "complete:2",
    "complete:3",
    "complete:5",
    "complete:8",
    "complete:12",
    "cycle:3",
    "cycle:4",
    "cycle:5",
    "cycle:7",
    "cycle:12",
    "path:1",
    "path:2",
    "path:5",
    "path:10",
    "star:1",
    "star:2",
    "star:4",
    "star:9",
    "bipartite:1:1",
    "bipartite:2:3",
    "bipartite:3:3",
    "bipartite:4:5",
    "petersen",
    "heawood",
    "rook:2",
    "rook:3",
    "rook:4",
    "rook:5",
    "projective:2",
    "projective:3",
    "projective:5",
    "gnp:10:0.2:1",
    "gnp:15:0.5:2",
    "gnp:20:0.8:3",
    "gnp:24:0.5:4",
    "union:complete:2,complete:2",
    "union:complete:3,cycle:4",
    "union:star:3,path:4",
    "union:complete:2,complete:2,complete:2",
]

# Energies known in closed form, as 40-digit Decimals where irrational.
EXACT_ENERGIES = {
    "complete:2": 2, "complete:5": 8, "cycle:4": 4, "cycle:6": 8, "star:4": 4,
    "bipartite:3:3": 6, "petersen": 16, "rook:4": 36,
}
with localcontext(prec=40):
    # FFj?? has spectrum +-(1 + sqrt 2), +-1, +-(sqrt 2 - 1) and 0.
    FFJ_ENERGY = 2 + 4 * Decimal(2).sqrt()
    # Heawood: +-3 once each and +-sqrt 2 six times each.
    HEAWOOD_ENERGY = 6 + 12 * Decimal(2).sqrt()

# Criterion batch: 200 seeded G(n, p), n in 4..24, p cycling {0.2, 0.5, 0.8}.
GNP_COUNT = 200


def gnp_batch_spec(i: int) -> tuple[int, float, int]:
    return 4 + (i % 21), (0.2, 0.5, 0.8)[i % 3], 1000 + i


_graph_cache: dict[str, me.Graph] = {}
_spectrum_cache: dict[me.Graph, me.Spectrum] = {}
_summary_cache: dict[me.Graph, me.MomentSummary] = {}


def corpus_graph(spec: str) -> me.Graph:
    if spec not in _graph_cache:
        _graph_cache[spec] = me.generate_from_string(spec)
    return _graph_cache[spec]


def spectrum_of(g: me.Graph) -> me.Spectrum:
    if g not in _spectrum_cache:
        _spectrum_cache[g] = me.eigenvalues(g)
    return _spectrum_cache[g]


def summary_of(g: me.Graph) -> me.MomentSummary:
    if g not in _summary_cache:
        _summary_cache[g] = me.moment_summary(g)
    return _summary_cache[g]


@pytest.fixture(scope="session")
def corpus() -> list[me.Graph]:
    return [corpus_graph(spec) for spec in CORPUS_SPECS]


@pytest.fixture(scope="session")
def gnp_batch() -> list[me.Graph]:
    return [me.random_gnp(*gnp_batch_spec(i)) for i in range(GNP_COUNT)]


def count_closed_walks(g: me.Graph, length: int) -> int:
    """Closed walks of the given length by plain depth-first enumeration."""
    neighbours = [[] for _ in range(g.n)]
    for i, j in g.edges():
        neighbours[i].append(j)
        neighbours[j].append(i)

    def walks(v: int, steps: int, target: int) -> int:
        if steps == 0:
            return 1 if v == target else 0
        return sum(walks(u, steps - 1, target) for u in neighbours[v])

    return sum(walks(v, length, v) for v in range(g.n))


def quartic_contraction(s: me.MomentSummary, r: float | None = None) -> Fraction:
    """The tangent quartic P_r, dilated to [-D, D] and contracted against (n, M2, M4) in
    Fractions.  r defaults to the printed tangency, where the value is the infimum M2 / D
    when D^2 M2 = M4."""
    d = Fraction(s.max_degree)
    if r is None:
        if d * d * s.m2 == s.m4:
            return s.m2 / d
        r = me.optimal_tangency(s)[0]
    r = Fraction(r)
    den = 2 * r * (r + 1) ** 2
    unit = (r * r * (2 * r + 1) / den, (3 * r * r + 2 * r + 1) / den, -1 / den)
    c0, c2, c4 = (c * d ** (1 - 2 * j) for j, c in enumerate(unit))
    return c0 * s.n + c2 * s.m2 + c4 * s.m4


def assert_rounded_up(value: float, exact: Fraction) -> None:
    """value is the least float at or above exact."""
    assert Fraction(value) >= exact > Fraction(math.nextafter(value, -math.inf)), (value, exact)


def brute_force_quad_count(g: me.Graph) -> int:
    """4-cycles by checking all three pairings of every 4-vertex subset."""
    count = 0
    for a, b, c, d in itertools.combinations(range(g.n), 4):
        for w, x, y, z in ((a, b, c, d), (a, c, b, d), (a, b, d, c)):
            if (
                g.has_edge(w, x)
                and g.has_edge(x, y)
                and g.has_edge(y, z)
                and g.has_edge(z, w)
            ):
                count += 1
    return count


def _common_neighbours(g: me.Graph, u: int, v: int) -> int:
    return sum(1 for w in range(g.n) if g.has_edge(u, w) and g.has_edge(v, w))


def brute_force_srg(g: me.Graph) -> tuple[int, int, int, int] | None:
    """Strongly regular parameters by counting common neighbours pair by pair."""
    degrees = set(g.degrees())
    if g.n < 2 or len(degrees) != 1:
        return None
    lams, mus = set(), set()
    for u, v in itertools.combinations(range(g.n), 2):
        (lams if g.has_edge(u, v) else mus).add(_common_neighbours(g, u, v))
    if len(lams) != 1 or len(mus) != 1:
        return None
    return (g.n, degrees.pop(), lams.pop(), mus.pop())


def reference_bipartition(g: me.Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Two-colouring by a stack depth-first search from each uncoloured vertex in turn."""
    colour = [-1] * g.n
    for start in range(g.n):
        if colour[start] != -1:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in range(g.n):
                if not g.has_edge(v, w):
                    continue
                if colour[w] == -1:
                    colour[w] = colour[v] ^ 1
                    stack.append(w)
                elif colour[w] == colour[v]:
                    return None
    left = tuple(i for i in range(g.n) if colour[i] == 0)
    right = tuple(i for i in range(g.n) if colour[i] == 1)
    return left, right


def reference_gauss_nodes(moments: list[int]) -> np.ndarray:
    """Gauss nodes by Bareiss elimination and a Jacobi matrix summed from three np.diag
    calls, for any rank, as polyopt built them before it filled one array."""
    m = len(moments) // 2
    a = [[moments[i + j] for j in range(m + 1)] for i in range(m)]
    minors = [1]
    for j in range(m):
        pivot = a[j][j]
        if pivot == 0:
            break
        for i in range(j + 1, m):
            for col in range(j + 1, m + 1):
                a[i][col] = (pivot * a[i][col] - a[i][j] * a[j][col]) // minors[-1]
        minors.append(pivot)
    r = len(minors) - 1
    alpha = [a[0][1] / minors[1]] if r else []
    for j in range(1, r):
        num = a[j][j + 1] * minors[j] - a[j - 1][j] * minors[j + 1]
        alpha.append(num / (minors[j + 1] * minors[j]))
    beta = [np.sqrt(minors[j] * minors[j + 2] / minors[j + 1] ** 2) for j in range(r - 1)]
    return np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))


def reference_eigenpairs(g: me.Graph) -> tuple[float, float]:
    """The energy from numpy.linalg.eigh, divide and conquer with eigenvectors, and the
    residual ||A V - V Lambda||_F of those eigenpairs.  Energy is the trace norm of A, so
    sqrt(n) times the residual bounds the error of the energy."""
    a = g.matrix.astype(np.float64)
    vals, vecs = np.linalg.eigh(a)
    return float(sum(abs(v) for v in vals[::-1])), float(np.linalg.norm(a @ vecs - vecs * vals))


def brute_force_design(g: me.Graph) -> tuple[int, int, int] | None:
    """Symmetric design parameters by counting common neighbours within each part."""
    parts = reference_bipartition(g)
    if parts is None or not parts[0] or len(parts[0]) != len(parts[1]):
        return None
    degrees = set(g.degrees())
    if len(degrees) != 1 or 0 in degrees:
        return None
    lams = {
        _common_neighbours(g, u, v)
        for part in parts
        for u, v in itertools.combinations(part, 2)
    }
    if len(lams) > 1:
        return None
    return (len(parts[0]), degrees.pop(), lams.pop() if lams else 0)


# Reference builders: the per-edge, per-line, per-character and per-bit loops
# that Graph.from_edges and the numpy parsers replaced.  They fill one bitset
# row per vertex and return (n, edges): every edge (i, j), i < j, in
# lexicographic order, read off the rows bit by bit.  Where they fail, they
# raise the same exception with the same message as the package must.


def _row_edges(n: int, rows: list[int]) -> tuple[int, tuple[tuple[int, int], ...]]:
    edges = []
    for i, row in enumerate(rows):
        row >>= i + 1
        while row:  # the lowest set bit, b places up, is the edge (i, i + 1 + b)
            edges.append((i, i + (row & -row).bit_length()))
            row &= row - 1
    return n, tuple(edges)


def reference_from_edges(n: int, edges) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Graph.from_edges as one loop over the edges, setting a bit in each endpoint's row."""
    rows = [0] * max(n, 0)
    for edge in edges:
        i, j = map(operator.index, edge)
        if not (0 <= i < n and 0 <= j < n):
            raise me.GraphError(f"edge ({i}, {j}): vertex index out of range for n={n}")
        if i == j:
            raise me.GraphError(f"edge ({i}, {j}): self loop")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    if n < 0:
        raise me.GraphError("vertex count must be non-negative")
    return _row_edges(n, rows)


def reference_parse_edge_list(text: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    numbered = [
        (idx, ln.strip()) for idx, ln in enumerate(text.split("\n"), start=1) if ln.strip()
    ]
    if not numbered:
        raise me.GraphError("empty edge-list input")
    head_no, head_line = numbered[0]
    head = head_line.split()
    if len(head) != 2 or head[0] != "n":
        raise me.GraphError(f"line {head_no}: malformed header {head_line!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise me.GraphError(f"line {head_no}: malformed vertex count {head[1]!r}") from None
    if n < 0:
        raise me.GraphError(f"line {head_no}: vertex count must be non-negative")
    if n > TRACE_MAX_VERTICES:
        raise me.GraphError(f"line {head_no}: n={n} exceeds the dense-matrix cap {TRACE_MAX_VERTICES}")
    rows = [0] * n
    for lineno, ln in numbered[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise me.GraphError(f"line {lineno}: malformed edge line {ln!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise me.GraphError(f"line {lineno}: malformed edge line {ln!r}") from None
        if not (0 <= i < n and 0 <= j < n):
            raise me.GraphError(
                f"line {lineno}: edge ({i}, {j}): vertex index out of range for n={n}"
            )
        if i == j:
            raise me.GraphError(f"line {lineno}: edge ({i}, {j}): self loop")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return _row_edges(n, rows)


def reference_parse_graph6(line: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    s = line.strip(WHITESPACE)
    if s.startswith(">>"):
        if not s.startswith(HEADER):
            raise Graph6Error(f"bad header: expected {HEADER!r}")
        s = s[len(HEADER):]
    if not s:
        raise Graph6Error("empty graph6 string")
    data = []
    for pos, ch in enumerate(s):
        code = ord(ch)
        if not 63 <= code <= 126:
            raise Graph6Error(
                f"invalid character {ch!r} at position {pos} (byte {code} outside 63..126)"
            )
        data.append(code - 63)
    if data[0] <= 62:
        n = data[0]
        body = data[1:]
    else:
        if len(data) >= 2 and data[1] == 63:
            raise Graph6Error(f"6-byte size fields (n > {MAX_VERTICES}) are not supported")
        if len(data) < 4:
            raise Graph6Error("truncated size field")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    nbits = n * (n - 1) // 2
    ngroups = (nbits + 5) // 6
    if len(body) < ngroups:
        raise Graph6Error(
            f"truncated adjacency bits: need {ngroups} groups for n={n}, got {len(body)}"
        )
    if len(body) > ngroups:
        raise Graph6Error("trailing data after adjacency bits")
    if ngroups:
        pad = 6 * ngroups - nbits
        if body[-1] & ((1 << pad) - 1):
            raise Graph6Error("nonzero padding bits")
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (body[k // 6] >> (5 - k % 6)) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return _row_edges(n, rows)
