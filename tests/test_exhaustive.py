"""Every labelled graph on at most six vertices, deduplicated by moment vector.

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


@functools.cache
def labelled_graphs(n):
    """(adjacency stack, (D, M0, M2, ..., M16) rows, connected flags) of all 2**C(n,2) graphs."""
    rows, cols = np.triu_indices(n, 1)
    codes = np.arange(2 ** len(rows))
    a = np.zeros((len(codes), n, n), dtype=np.int64)
    a[:, rows, cols] = (codes[:, None] >> np.arange(len(rows))) & 1
    a += a.transpose(0, 2, 1)
    # Exact in int64: M16 <= n * D**16 <= 6 * 5**16.
    a2 = a @ a
    power = np.broadcast_to(np.eye(n, dtype=np.int64), a.shape)
    moments = []
    for _ in range(0, MAX_POWER + 1, 2):
        moments.append(np.trace(power, axis1=1, axis2=2))
        power = power @ a2
    keys = np.column_stack([a.sum(axis=2).max(axis=1), *moments])
    reach = (a + np.eye(n, dtype=np.int64) > 0).astype(np.int64)
    for _ in range(3):  # paths of length up to 8 >= n - 1
        reach = (reach @ reach > 0).astype(np.int64)
    return a, keys, reach.all(axis=(1, 2))


def graph_of(adjacency):
    n = len(adjacency)
    return me.Graph.from_edges(n, np.argwhere(np.triu(adjacency)).tolist())


@functools.cache
def representatives(n):
    """One (graph, key, energy) per distinct moment vector with at least one edge."""
    a, keys, _ = labelled_graphs(n)
    uniq, first = np.unique(keys, axis=0, return_index=True)
    energies = np.abs(np.linalg.eigvalsh(a[first].astype(float))).sum(axis=1)
    return [
        (graph_of(a[i]), key, float(e))
        for i, key, e in zip(first, uniq, energies)
        if key[0] > 0
    ]


@pytest.mark.parametrize("n", range(2, 7))
def test_every_moment_vector_sweeps_sound_monotone_and_quartic_consistent(n):
    reps = representatives(n)
    assert reps
    for g, key, energy in reps:
        walks = me.trace_moments(g, MAX_POWER)
        assert [max(g.degrees()), *walks[::2]] == key.tolist()
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


# Labelled copies of K_n, C4 (3 on four vertices), C6 (60) and K3,3 (10).
TIGHT_CONNECTED = {
    4: {"Complete": 1, "DesignIncidence(2,2,2)": 3},
    5: {"Complete": 1},
    6: {"Complete": 1, "DesignIncidence(3,2,1)": 60, "DesignIncidence(3,3,3)": 10},
}


@pytest.mark.parametrize("n", sorted(TIGHT_CONNECTED))
def test_connected_graphs_attaining_the_quartic_bound_are_complete_or_designs(n):
    a, keys, connected = labelled_graphs(n)
    tight = {
        tuple(key)
        for g, key, _ in representatives(n)
        if me.analyze_graph(g).classification.tag != "NotTight"
    }
    census = Counter(
        str(me.analyze_graph(graph_of(a[i])).classification)
        for i in np.flatnonzero(connected)
        if tuple(keys[i]) in tight
    )
    assert census == TIGHT_CONNECTED[n]
