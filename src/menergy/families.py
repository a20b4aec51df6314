"""Deterministic graph generators for named families and seeded random graphs.

Family specs have a colon-separated text form used by the command line:

    complete:5   cycle:6   path:4   star:4   bipartite:2:3   rook:4
    petersen     heawood   projective:3   gnp:12:0.3:42
    union:complete:2,complete:2

``union`` takes a comma-separated list of non-union specs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph


class FamilyError(ValueError):
    """Unknown family, bad arity, or out-of-range parameters."""


@dataclass(frozen=True)
class FamilySpec:
    """A parsed family name with its parameters.

    ``parts`` is only populated for ``union``, whose members are themselves
    specs.  ``str()`` reproduces the canonical text form.
    """

    kind: str
    params: tuple = ()
    parts: tuple["FamilySpec", ...] = ()

    def __str__(self) -> str:
        if self.kind == "union":
            return "union:" + ",".join(str(p) for p in self.parts)
        if not self.params:
            return self.kind
        return self.kind + ":" + ":".join(f"{p:g}" if isinstance(p, float) else str(p) for p in self.params)


def complete(n: int) -> Graph:
    if n < 1:
        raise FamilyError(f"complete graph needs n >= 1, got {n}")
    return Graph.from_edges(n, combinations(range(n), 2), label=f"complete:{n}")


def cycle(n: int) -> Graph:
    if n < 3:
        raise FamilyError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)], label=f"cycle:{n}")


def path(n: int) -> Graph:
    if n < 1:
        raise FamilyError(f"path needs n >= 1, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], label=f"path:{n}")


def star(k: int) -> Graph:
    """The star with k leaves: vertex 0 joined to 1..k."""
    if k < 1:
        raise FamilyError(f"star needs k >= 1 leaves, got {k}")
    return Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)], label=f"star:{k}")


def complete_bipartite(p: int, q: int) -> Graph:
    if p < 1 or q < 1:
        raise FamilyError(f"complete bipartite needs both sides >= 1, got {p}, {q}")
    edges = [(i, p + j) for i in range(p) for j in range(q)]
    return Graph.from_edges(p + q, edges, label=f"bipartite:{p}:{q}")


def petersen() -> Graph:
    """Kneser graph on the 2-subsets of a 5-set; disjoint pairs are adjacent."""
    pairs = list(combinations(range(5), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    edges = [
        (index[a], index[b])
        for a, b in combinations(pairs, 2)
        if not set(a) & set(b)
    ]
    return Graph.from_edges(10, edges, label="petersen")


def rook(s: int) -> Graph:
    """s x s rook's graph: board squares, adjacent iff same row or column."""
    if s < 2:
        raise FamilyError(f"rook graph needs board size >= 2, got {s}")
    n = s * s
    edges = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if a // s == b // s or a % s == b % s
    ]
    return Graph.from_edges(n, edges, label=f"rook:{s}")


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def projective_plane_incidence(q: int) -> Graph:
    """Point-line incidence graph of the projective plane of prime order q.

    Points and lines are the q^2 + q + 1 nonzero triples over GF(q) normalised
    so the first nonzero coordinate is 1; a point lies on a line iff their dot
    product vanishes mod q.  Prime orders only (prime-power fields are out of
    scope).
    """
    if not _is_prime(q):
        raise FamilyError(f"projective plane order must be prime, got {q}")
    triples = [(1, y, z) for y in range(q) for z in range(q)]
    triples += [(0, 1, z) for z in range(q)]
    triples.append((0, 0, 1))
    npts = len(triples)
    edges = []
    for pi, p in enumerate(triples):
        for li, line in enumerate(triples):
            if (p[0] * line[0] + p[1] * line[1] + p[2] * line[2]) % q == 0:
                edges.append((pi, npts + li))
    return Graph.from_edges(2 * npts, edges, label=f"projective:{q}")


def heawood() -> Graph:
    """The Heawood graph, realised as the incidence graph of the Fano plane."""
    g = projective_plane_incidence(2)
    return Graph(g.n, g.adj, label="heawood")


# Independent presentation of the Heawood graph for cross-checking the
# incidence construction: a 14-cycle with chords i -- i+5 from even i
# (LCF notation [5, -5]^7).
HEAWOOD_FIXTURE_EDGES: tuple[tuple[int, int], ...] = tuple(
    [(i, (i + 1) % 14) for i in range(14)] + [(i, (i + 5) % 14) for i in range(0, 14, 2)]
)


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a given seed.

    One uniform draw per vertex pair, pairs visited in lexicographic order
    (i, j) with i < j, using the Mersenne Twister behind ``random.Random``.
    """
    if n < 0:
        raise FamilyError(f"gnp needs n >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise FamilyError(f"gnp needs probability in [0, 1], got {p}")
    rng = random.Random(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    return Graph.from_edges(n, edges, label=f"gnp:{n}:{p:g}:{seed}")


def disjoint_union(graphs: list[Graph], label: str = "") -> Graph:
    """Vertex-disjoint union; vertex blocks keep the input order."""
    total = sum(g.n for g in graphs)
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((offset + i, offset + j) for i, j in g.edges())
        offset += g.n
    return Graph.from_edges(total, edges, label=label)


# kind -> (builder, number of parameters); union is handled by the grammar itself.
_FAMILIES = {
    "complete": (complete, 1),
    "cycle": (cycle, 1),
    "path": (path, 1),
    "star": (star, 1),
    "bipartite": (complete_bipartite, 2),
    "petersen": (petersen, 0),
    "heawood": (heawood, 0),
    "rook": (rook, 1),
    "projective": (projective_plane_incidence, 1),
    "gnp": (random_gnp, 3),
}


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the colon grammar; raises FamilyError on anything unrecognised."""
    t = text.strip()
    if not t:
        raise FamilyError("empty family spec")
    if t.startswith("union:"):
        body = t[len("union:"):]
        if not body:
            raise FamilyError("union needs at least one member spec")
        parts = []
        for piece in body.split(","):
            member = parse_family_spec(piece)
            if member.kind == "union":
                raise FamilyError("nested unions are not expressible in the flat grammar")
            parts.append(member)
        return FamilySpec("union", (), tuple(parts))
    fields = t.split(":")
    kind = fields[0]
    args = fields[1:]
    if kind not in _FAMILIES:
        raise FamilyError(f"unknown family {kind!r}")
    arity = _FAMILIES[kind][1]
    if len(args) != arity:
        raise FamilyError(f"{kind} takes {arity} parameter(s), got {len(args)}")
    try:
        if kind == "gnp":
            params: tuple = (int(args[0]), float(args[1]), int(args[2]))
        else:
            params = tuple(int(a) for a in args)
    except ValueError:
        raise FamilyError(f"non-numeric parameter in {t!r}") from None
    return FamilySpec(kind, params)


def generate(spec: FamilySpec) -> Graph:
    """Materialise a spec; the result's label is the canonical spec string."""
    if spec.kind == "union":
        graphs = [generate(part) for part in spec.parts]
        return disjoint_union(graphs, label=str(spec))
    if spec.kind not in _FAMILIES:
        raise FamilyError(f"unknown family {spec.kind!r}")
    return _FAMILIES[spec.kind][0](*spec.params)


def generate_from_string(text: str) -> Graph:
    return generate(parse_family_spec(text))
