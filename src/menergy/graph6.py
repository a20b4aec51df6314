"""Bit-exact graph6 encoding and decoding.

A graph6 string is a size field followed by the upper triangle of the
adjacency matrix read in column order x(0,1), x(0,2), x(1,2), x(0,3), ...
The bit stream is packed big-endian into 6-bit groups and each group is
offset by 63 into the printable byte range 63..126.  The size field is a
single byte ``n + 63`` for n <= 62, or ``126`` followed by three bytes
holding n big-endian in 18 bits for 63 <= n <= 258047.  The optional
``>>graph6<<`` header is accepted on input and never emitted.
"""

from __future__ import annotations

from .graphs import Graph

HEADER = ">>graph6<<"
MAX_VERTICES = 258047  # largest n encodable in the 3-byte size field
# What bytes.strip() removes around a line, as networkx's read_graph6 does;
# str.strip() would also drop the separators 0x1c-0x1f and hide a corrupt byte.
WHITESPACE = " \t\n\r\x0b\x0c"


class Graph6Error(ValueError):
    """Malformed graph6 input, or a graph too large to encode."""


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 string (an optional header is tolerated)."""
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
    return Graph(n, tuple(rows))


def write_graph6(g: Graph) -> str:
    """Encode a graph canonically (no header, minimal size field)."""
    n = g.n
    if n > MAX_VERTICES:
        raise Graph6Error(f"graph too large to encode: n={n} exceeds {MAX_VERTICES}")
    out = []
    if n <= 62:
        out.append(chr(n + 63))
    else:
        out.append(chr(126))
        out.append(chr(((n >> 12) & 63) + 63))
        out.append(chr(((n >> 6) & 63) + 63))
        out.append(chr((n & 63) + 63))
    group = 0
    filled = 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            group = (group << 1) | ((col >> i) & 1)
            filled += 1
            if filled == 6:
                out.append(chr(group + 63))
                group = 0
                filled = 0
    if filled:
        group <<= 6 - filled
        out.append(chr(group + 63))
    return "".join(out)
