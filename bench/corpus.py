"""Seeded input corpora for the benchmark workloads.

Every graph is drawn from the workload seed and written to disk in the
format the CLI reads; the CLI never sees a family spec.  The benchmark keeps
its own copy of each graph (vertex count and edge list) so the oracles work
from the generated data, not from anything the package parsed.

Fixed graphs are relabelled by a seeded vertex permutation.  That changes
the bytes the parsers see on every seed while leaving every invariant the
CLI reports unchanged: the expected classes still apply, the bound gap is
the same on every seed, and so is the work of the bound solver, which
depends only on the walk counts.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from menergy.families import generate_from_string


@dataclass(frozen=True)
class Case:
    """One graph of a corpus: its label, size, edges and expected class tag."""

    label: str
    n: int
    edges: tuple[tuple[int, int], ...]
    expected_class: str | None = None


@dataclass(frozen=True)
class CorpusFile:
    """One input file, handed to one CLI call."""

    name: str
    fmt: str  # "graph6" or "edgelist"
    cases: tuple[Case, ...]

    def text(self) -> str:
        if self.fmt == "edgelist":
            (case,) = self.cases
            return "".join([f"n {case.n}\n"] + [f"{i} {j}\n" for i, j in case.edges])
        return "".join(encode_graph6(c.n, c.edges) + "\n" for c in self.cases)


def encode_graph6(n: int, edges: tuple[tuple[int, int], ...]) -> str:
    """graph6 text for a simple graph, written independently of menergy.graph6."""
    if n <= 62:
        head = [n]
    else:
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    bits = [0] * (n * (n - 1) // 2)
    for i, j in edges:
        lo, hi = min(i, j), max(i, j)
        bits[hi * (hi - 1) // 2 + lo] = 1
    bits += [0] * (-len(bits) % 6)
    body = [
        int("".join(str(b) for b in bits[k : k + 6]), 2) for k in range(0, len(bits), 6)
    ]
    return "".join(chr(v + 63) for v in head + body)


def relabelled(spec: str, rng: random.Random, expected_class: str | None = None) -> Case:
    """A family graph under a seeded vertex permutation."""
    g = generate_from_string(spec)
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = tuple(sorted(tuple(sorted((perm[i], perm[j]))) for i, j in g.edges()))
    return Case(spec, g.n, edges, expected_class)


def gnp(n: int, p: float, rng: random.Random) -> Case:
    """A G(n, p) draw whose generator seed comes from rng."""
    spec = f"gnp:{n}:{p:g}:{rng.randrange(2**31)}"
    g = generate_from_string(spec)
    return Case(spec, g.n, tuple(g.edges()))


# Fixed families: one of each classify_equality outcome (Complete,
# DesignIncidence, SrgEqualParams, NotTight, TightUnclassified on a
# disconnected tight graph) plus the edgeless m = 0 short-circuit.
SMALL_FAMILIES = (
    ("complete:2", "Complete"),
    ("complete:5", "Complete"),
    ("complete:9", "Complete"),
    ("cycle:5", None),
    ("cycle:12", None),
    ("path:7", None),
    ("star:6", None),
    ("bipartite:3:5", None),
    ("petersen", None),
    ("heawood", "DesignIncidence"),
    ("projective:2", "DesignIncidence"),
    ("projective:3", "DesignIncidence"),
    ("rook:3", None),
    ("rook:4", "SrgEqualParams"),
    ("union:complete:2,complete:2", None),
    ("union:complete:3,complete:3", None),
)
SMALL_SIZES = range(6, 25)
SMALL_DENSITIES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
SMALL_EDGELESS_N = 7

# Sparse, medium and dense G(n, p) beside two structured graphs.  The graphs
# are fixed and only relabelled: the Jacobi work of a different G(n, p) draw
# at these sizes moves a whole pass by several per cent.
LARGE_FAMILIES = (
    ("gnp:96:0.05:1", None),
    ("gnp:128:0.3:1", None),
    ("gnp:160:0.5:1", None),
    ("projective:7", "DesignIncidence"),
    ("rook:10", None),
)

SWEEP_FAMILIES = ("petersen", "gnp:24:0.5:4")
SWEEP_MAX_DEGREE = 8


def analyze_small(seed: int) -> list[CorpusFile]:
    """188 graphs on 6-26 vertices in one graph6 file.

    One G(n, p) per (n, p) cell, so the total work barely moves between
    seeds; the seed picks the graphs.  A pass takes a few seconds, so a run
    makes several and reports their median.
    """
    rng = random.Random(f"analyze-small:{seed}")
    cases = [relabelled(spec, rng, cls) for spec, cls in SMALL_FAMILIES]
    cases.append(Case(f"edgeless:{SMALL_EDGELESS_N}", SMALL_EDGELESS_N, ()))
    cases += [gnp(n, p, rng) for n in SMALL_SIZES for p in SMALL_DENSITIES]
    rng.shuffle(cases)
    return [CorpusFile("small.g6", "graph6", tuple(cases))]


def analyze_large(seed: int) -> list[CorpusFile]:
    """Five edge lists with n = 96-160, one CLI call each."""
    rng = random.Random(f"analyze-large:{seed}")
    cases = [relabelled(spec, rng, cls) for spec, cls in LARGE_FAMILIES]
    return [CorpusFile(f"large{k}.txt", "edgelist", (c,)) for k, c in enumerate(cases)]


def sweep_lp(seed: int) -> list[CorpusFile]:
    """Seeded relabellings of the two sweep graphs, one graph6 file each, so
    each graph's sweep is timed on its own."""
    rng = random.Random(f"sweep-lp:{seed}")
    return [
        CorpusFile(f"sweep{k}.g6", "graph6", (relabelled(s, rng),))
        for k, s in enumerate(SWEEP_FAMILIES)
    ]


def write(files: list[CorpusFile], directory: Path) -> str:
    """Write the corpus files and return the SHA-256 over their names and bytes."""
    directory.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for f in files:
        data = f.text().encode("ascii")
        (directory / f.name).write_bytes(data)
        digest.update(f.name.encode("ascii") + b"\0" + data)
    return digest.hexdigest()
