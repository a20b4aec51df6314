"""Bit-exact graph6 encoding and decoding, both vectorised in numpy.

A graph6 string is a size field followed by the upper triangle of the
adjacency matrix read in column order x(0,1), x(0,2), x(1,2), x(0,3), ...
The bit stream is packed big-endian into 6-bit groups and each group is
offset by 63 into the printable byte range 63..126.  The size field is a
single byte ``n + 63`` for n <= 62, or ``126`` followed by three bytes
holding n big-endian in 18 bits for 63 <= n <= 258047.  The optional
``>>graph6<<`` header is accepted on input and never emitted.  That column
order is the strict lower triangle read row by row, so the writer copies the
bits straight out of a graph's matrix.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph

HEADER = ">>graph6<<"
MAX_VERTICES = 258047  # largest n encodable in the 3-byte size field
# What bytes.strip() removes around a line, as networkx's read_graph6 does;
# str.strip() would also drop the separators 0x1c-0x1f and hide a corrupt byte.
WHITESPACE = " \t\n\r\x0b\x0c"

# Stream position k of x(i, j), i < j, is entry k of the strict lower triangle read
# row by row, so for any n up to the table's order, (j, i) = _LOWER[0][k], _LOWER[1][k].
# The order is bounded because the table holds 16 bytes per adjacency bit.
_LOWER_ORDER = 128
_LOWER = np.tril_indices(_LOWER_ORDER, -1)


class Graph6Error(ValueError):
    """Malformed graph6 input, or a graph too large to encode."""


def _size_field(line: str, checked: int | None) -> tuple[str, int, int]:
    """The graph6 string on a line, its vertex count n and the length of its size field.

    Whitespace and an optional header are removed first.  The first `checked`
    characters (all of them for None) must lie in 63..126; 4 covers any size field.
    """
    s = line.strip(WHITESPACE)
    if s.startswith(">>"):
        if not s.startswith(HEADER):
            raise Graph6Error(f"bad header: expected {HEADER!r}")
        s = s[len(HEADER):]
    if not s:
        raise Graph6Error("empty graph6 string")
    if min(head := s[:checked]) < "?" or max(head) > "~":
        pos = next(p for p, ch in enumerate(head) if not "?" <= ch <= "~")
        raise Graph6Error(
            f"invalid character {s[pos]!r} at position {pos} (byte {ord(s[pos])} outside 63..126)"
        )
    if s[0] != "~":
        return s, ord(s[0]) - 63, 1
    if len(s) >= 2 and s[1] == "~":
        raise Graph6Error(f"6-byte size fields (n > {MAX_VERTICES}) are not supported")
    if len(s) < 4:
        raise Graph6Error("truncated size field")
    return s, (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | (ord(s[3]) - 63), 4


def graph6_order(line: str) -> int:
    """The vertex count of a graph6 line, read from its size field without decoding the rest."""
    return _size_field(line, 4)[1]


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 string (an optional header is tolerated)."""
    s, n, start = _size_field(line, None)
    body = np.frombuffer(s[start:].encode("ascii"), np.uint8) - 63
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
        if int(body[-1]) & ((1 << pad) - 1):
            raise Graph6Error("nonzero padding bits")
    bits = ((body[:, None] >> np.arange(5, -1, -1, dtype=np.uint8)) & 1).ravel()[:nbits]
    k = np.flatnonzero(bits)
    if n <= _LOWER_ORDER:
        return Graph._from_pairs(n, _LOWER[1][k], _LOWER[0][k])
    # Above the table's order, bit k is x(i, j) for the j with j(j-1)/2 <= k < j(j+1)/2.
    starts = np.arange(n) * (np.arange(n) - 1) // 2
    j = np.searchsorted(starts, k, side="right") - 1
    return Graph._from_pairs(n, k - starts[j], j)


def check_encodable(n: int) -> None:
    """Raise Graph6Error if the size field cannot hold n."""
    if n > MAX_VERTICES:
        raise Graph6Error(f"graph too large to encode: n={n} exceeds {MAX_VERTICES}")


def write_graph6(g: Graph) -> str:
    """Encode a graph canonically (no header, minimal size field).

    The bits are copied out of the matrix row by row; above the dense cap, where there is
    none, each edge's bit is set at its stream position."""
    check_encodable(n := g.n)
    size = [n] if n <= 62 else [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    ngroups = (n * (n - 1) // 2 + 5) // 6
    line = np.full(len(size) + ngroups, 63, np.uint8)
    line[: len(size)] += np.array(size, np.uint8)
    if g.matrix is not None:
        bits = np.zeros(6 * ngroups, np.uint8)
        for j in range(1, n):
            bits[j * (j - 1) // 2 : j * (j + 1) // 2] = g.matrix[j, :j]
        line[len(size) :] += bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1], np.uint8)
    else:
        i, j = g._pairs()
        k = j * (j - 1) // 2 + i  # stream position of x(i, j)
        np.add.at(line, len(size) + k // 6, (32 >> k % 6).astype(np.uint8))  # distinct bits: + is |
    data = line.tobytes()
    del line  # so the line is held twice at most, as bytes and then as str
    return data.decode("ascii")
