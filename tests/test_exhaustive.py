"""Every labelled graph on at most seven vertices, deduplicated by moment vector.

n = 7 (2**21 graphs, enumerated in blocks) is marked slow: `pytest -m slow`.

The sweep bounds depend on a graph only through D and its even closed-walk
counts (M0, M2, ..., M16), and for n <= 7 those moments fix the multiset of
|eigenvalue|s, hence the energy.  So one representative per distinct vector
stands for every labelled graph with it.  The moments are counted here with
batched integer matrix products, apart from `trace_moments`, and the energy
comes from numpy's `eigvalsh`, apart from `menergy.spectral`.
"""

import functools
from collections import Counter

import numpy as np
import pytest

import menergy as me
from menergy.report import SOUNDNESS_RTOL

MAX_POWER = 16


# Graphs per enumeration block: n = 7 has 2**21 labelled graphs, too many at once.
BLOCK = 2**15


def labelled_block(n, codes):
    """(adjacency stack, (D, M0, M2, ..., M16) rows) of the graphs numbered codes.

    Graph number c has edge e of the upper triangle, in row order, iff bit e of c
    is set.
    """
    rows, cols = np.triu_indices(n, 1)
    a = np.zeros((len(codes), n, n), dtype=np.int64)
    a[:, rows, cols] = (codes[:, None] >> np.arange(len(rows))) & 1
    a += a.transpose(0, 2, 1)
    # Exact in int64: M16 <= n * D**16 <= 7 * 6**16.
    a2 = a @ a
    power = np.broadcast_to(np.eye(n, dtype=np.int64), a.shape)
    moments = []
    for _ in range(0, MAX_POWER + 1, 2):
        moments.append(np.trace(power, axis1=1, axis2=2))
        power = power @ a2
    return a, np.column_stack([a.sum(axis=2).max(axis=1), *moments])


def connected(a):
    """Connectivity flags of an adjacency stack on n <= 9 vertices."""
    reach = (a + np.eye(a.shape[1], dtype=np.int64) > 0).astype(np.int64)
    for _ in range(3):  # paths of length up to 8 >= n - 1
        reach = (reach @ reach > 0).astype(np.int64)
    return reach.all(axis=(1, 2))


def graph_of(adjacency):
    n = len(adjacency)
    return me.Graph.from_edges(n, np.argwhere(np.triu(adjacency)).tolist())


@functools.cache
def representatives(n):
    """One (graph, key, energy) per distinct moment vector with at least one edge."""
    total = 2 ** (n * (n - 1) // 2)
    first = {}
    for start in range(0, total, BLOCK):
        a, keys = labelled_block(n, np.arange(start, min(start + BLOCK, total)))
        uniq, index = np.unique(keys, axis=0, return_index=True)
        for key, i in zip(map(tuple, uniq.tolist()), index):
            if key[0] > 0 and key not in first:
                first[key] = a[i].copy()  # not a view: it would keep the block alive
    energies = np.abs(np.linalg.eigvalsh(np.array(list(first.values()), float))).sum(axis=1)
    return [(graph_of(adj), key, float(e)) for (key, adj), e in zip(first.items(), energies)]


def check_sweeps(reps):
    """Every sweep entry certified, sound and monotone; degree 4 is the closed form."""
    for g, key, energy in reps:
        walks = me.trace_moments(g, MAX_POWER)
        assert (max(g.degrees()), *walks[::2]) == key
        entries = me.bound_sweep(g, MAX_POWER)
        for e in entries:
            assert e.upper.certified and e.lower.certified, (key, e.degree)
            assert me.soundness_ok(energy, e.upper.objective, e.lower.objective), (key, e.degree)
        for prev, cur in zip(entries, entries[1:]):
            assert cur.upper.objective <= prev.upper.objective, (key, cur.degree)
            assert cur.lower.objective >= prev.lower.objective, (key, cur.degree)
        closed = me.best_quartic_bound(me.scaled_moments(me.moment_summary(g)))
        assert abs(entries[1].upper.objective - closed) <= 1e-4 * closed, key
        assert energy <= closed + SOUNDNESS_RTOL * max(1.0, energy), key


@pytest.mark.parametrize("n", range(2, 7))
def test_every_moment_vector_sweeps_sound_monotone_and_quartic_consistent(n):
    reps = representatives(n)
    assert reps
    check_sweeps(reps)


@pytest.mark.slow
def test_every_seven_vertex_moment_vector_passes_the_same_gates():
    reps = representatives(7)
    assert len(reps) == 1027
    check_sweeps(reps)


# Labelled copies of K_n, C4 (3 on four vertices), C6 (60) and K3,3 (10).
TIGHT_CONNECTED = {
    4: {"Complete": 1, "DesignIncidence(2,2,2)": 3},
    5: {"Complete": 1},
    6: {"Complete": 1, "DesignIncidence(3,2,1)": 60, "DesignIncidence(3,3,3)": 10},
    7: {"Complete": 1},
}


@pytest.mark.parametrize("n", [4, 5, 6, pytest.param(7, marks=pytest.mark.slow)])
def test_connected_graphs_attaining_the_quartic_bound_are_complete_or_designs(n):
    tight = np.array(
        [key for g, key, _ in representatives(n) if me.analyze_graph(g).classification.tag != "NotTight"]
    )
    census = Counter()
    total = 2 ** (n * (n - 1) // 2)
    for start in range(0, total, BLOCK):
        a, keys = labelled_block(n, np.arange(start, min(start + BLOCK, total)))
        a = a[(keys[:, None, :] == tight).all(axis=2).any(axis=1)]
        census.update(str(me.analyze_graph(graph_of(adj)).classification) for adj in a[connected(a)])
    assert census == TIGHT_CONNECTED[n]
