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

import numpy as np

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
        return self.kind + ":" + ":".join(_float_text(p) if isinstance(p, float) else str(p) for p in self.params)

    @property
    def order(self) -> int:
        """The vertex count of the graph this spec builds, found without building it."""
        if self.kind == "union":
            return sum(part.order for part in self.parts)
        return _family(self.kind)[2](*self.params)


def _float_text(p: float) -> str:
    """p as short as %g writes it when that text reads back as p, else as repr(p)."""
    return text if float(text := f"{p:g}") == p else repr(p)


def complete(n: int) -> Graph:
    if n < 1:
        raise FamilyError(f"complete graph needs n >= 1, got {n}")
    return Graph._from_pairs(n, *np.triu_indices(n, 1), label=f"complete:{n}")


def cycle(n: int) -> Graph:
    if n < 3:
        raise FamilyError(f"cycle needs n >= 3, got {n}")
    i = np.arange(n)
    return Graph._from_pairs(n, i, (i + 1) % n, label=f"cycle:{n}")


def path(n: int) -> Graph:
    if n < 1:
        raise FamilyError(f"path needs n >= 1, got {n}")
    i = np.arange(n - 1)
    return Graph._from_pairs(n, i, i + 1, label=f"path:{n}")


def star(k: int) -> Graph:
    """The star with k leaves: vertex 0 joined to 1..k."""
    if k < 1:
        raise FamilyError(f"star needs k >= 1 leaves, got {k}")
    return Graph._from_pairs(k + 1, np.zeros(k, np.int64), np.arange(1, k + 1), label=f"star:{k}")


def complete_bipartite(p: int, q: int) -> Graph:
    if p < 1 or q < 1:
        raise FamilyError(f"complete bipartite needs both sides >= 1, got {p}, {q}")
    i, j = np.divmod(np.arange(p * q), q)
    return Graph._from_pairs(p + q, i, p + j, label=f"bipartite:{p}:{q}")


def petersen() -> Graph:
    """Kneser graph on the 2-subsets of a 5-set; disjoint pairs are adjacent."""
    s = np.array(list(combinations(range(5), 2)))  # vertex k is the subset s[k]
    a, b = np.triu_indices(10, 1)
    keep = (s[a, :, None] != s[b, None, :]).all(axis=(1, 2))
    return Graph._from_pairs(10, a[keep], b[keep], label="petersen")


def rook(s: int) -> Graph:
    """s x s rook's graph: board squares, adjacent iff same row or column."""
    if s < 2:
        raise FamilyError(f"rook graph needs board size >= 2, got {s}")
    a, b = np.triu_indices(s * s, 1)
    keep = (a // s == b // s) | (a % s == b % s)
    return Graph._from_pairs(s * s, a[keep], b[keep], label=f"rook:{s}")


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
    t = np.array(triples)
    points, lines = np.nonzero(t @ t.T % q == 0)
    return Graph._from_pairs(2 * len(t), points, len(t) + lines, label=f"projective:{q}")


def heawood() -> Graph:
    """The Heawood graph, realised as the incidence graph of the Fano plane."""
    g = projective_plane_incidence(2)
    return Graph._from_pairs(g.n, *g._pairs(), label="heawood")


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
    heads = [np.flatnonzero([rng.random() < p for _ in range(i + 1, n)]) + i + 1 for i in range(n)]
    tails = np.repeat(np.arange(n), [len(h) for h in heads])
    heads = np.concatenate([np.zeros(0, np.int64), *heads])  # n may be 0
    return Graph._from_pairs(n, tails, heads, label=f"gnp:{n}:{_float_text(p)}:{seed}")


def disjoint_union(graphs: list[Graph], label: str = "") -> Graph:
    """Vertex-disjoint union; vertex blocks keep the input order."""
    blocks, offset = [np.zeros((2, 0), np.int64)], 0
    for g in graphs:
        blocks.append(np.stack(g._pairs()) + offset)
        offset += g.n
    return Graph._from_pairs(offset, *np.concatenate(blocks, axis=1), label)


# kind -> (builder, parameter types, vertex count from the parameters);
# union is handled by the grammar itself.
_FAMILIES = {
    "complete": (complete, (int,), lambda n: n),
    "cycle": (cycle, (int,), lambda n: n),
    "path": (path, (int,), lambda n: n),
    "star": (star, (int,), lambda k: k + 1),
    "bipartite": (complete_bipartite, (int, int), lambda p, q: p + q),
    "petersen": (petersen, (), lambda: 10),
    "heawood": (heawood, (), lambda: 14),
    "rook": (rook, (int,), lambda s: s * s),
    "projective": (projective_plane_incidence, (int,), lambda q: 2 * (q * q + q + 1)),
    "gnp": (random_gnp, (int, float, int), lambda n, p, seed: n),
}


def _family(kind: str) -> tuple:
    if kind not in _FAMILIES:
        raise FamilyError(f"unknown family {kind!r}")
    return _FAMILIES[kind]


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
    kind, *args = t.split(":")
    types = _family(kind)[1]
    if len(args) != len(types):
        raise FamilyError(f"{kind} takes {len(types)} parameter(s), got {len(args)}")
    try:
        return FamilySpec(kind, tuple(read(a) for read, a in zip(types, args)))
    except ValueError:
        raise FamilyError(f"non-numeric parameter in {t!r}") from None


def generate(spec: FamilySpec) -> Graph:
    """Materialise a spec; the result's label is the canonical spec string."""
    if spec.kind == "union":
        graphs = [generate(part) for part in spec.parts]
        return disjoint_union(graphs, label=str(spec))
    return _family(spec.kind)[0](*spec.params)


def generate_from_string(text: str) -> Graph:
    return generate(parse_family_spec(text))
