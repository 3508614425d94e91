"""Bitset graphs, degree sequences, exact degree powers, and graph6 I/O.

A graph is stored as a tuple of integer bitsets, one per vertex: bit j of
``adj[i]`` is set iff ij is an edge.  Vertices are 0-indexed and the vertex
count is capped at 64 so a neighborhood always fits one machine word.
All degree-power values are exact Python ints (e.g. 63**20 overflows any
fixed-width type).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_VERTICES = 64


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: ``adj[i]`` is the neighborhood bitset of i.

    Invariants: adj is symmetric, the diagonal is zero (no loops), and
    1 <= n <= 64.  Instances are immutable and hashable.
    """

    n: int
    adj: tuple[int, ...]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            v = u + 1
            while rest:
                if rest & 1:
                    yield (u, v)
                rest >>= 1
                v += 1

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.edge_count()})"


def check_vertex_count(n: int) -> None:
    """Raise ValueError for n outside [1, MAX_VERTICES]."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in [1, {MAX_VERTICES}], got {n}")


def new_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph on n vertices from an edge list (duplicates collapse).

    Raises ValueError for n outside [1, 64], loops, or out-of-range endpoints.
    """
    check_vertex_count(n)
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """Return g plus edge uv (which must not already exist)."""
    if u == v or g.has_edge(u, v):
        raise ValueError(f"cannot add edge ({u},{v})")
    adj = list(g.adj)
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    return Graph(g.n, tuple(adj))


def permute(g: Graph, perm: Iterable[int]) -> Graph:
    """Relabel g: vertex v becomes perm[v]."""
    p = list(perm)
    adj = [0] * g.n
    for u in range(g.n):
        row = 0
        rest = g.adj[u]
        v = 0
        while rest:
            if rest & 1:
                row |= 1 << p[v]
            rest >>= 1
            v += 1
        adj[p[u]] = row
    return Graph(g.n, tuple(adj))


def degree_sequence(g: Graph) -> tuple[int, ...]:
    """All vertex degrees, sorted non-increasing."""
    return tuple(sorted((a.bit_count() for a in g.adj), reverse=True))


def ep(g: Graph, p: int) -> int:
    """Sum of the p-th powers of all vertex degrees, exactly.

    p=1 gives twice the edge count (handshake).
    """
    if p < 1:
        raise ValueError("exponent p must be >= 1")
    return sum(a.bit_count() ** p for a in g.adj)


def induced_subgraph(g: Graph, vertices: int | Iterable[int]) -> Graph:
    """Subgraph induced by the given vertices (bitset or iterable), relabeled.

    Selected vertices are renumbered 0,1,... in increasing original order.
    """
    if isinstance(vertices, int):
        if vertices < 0 or vertices >> g.n:
            raise ValueError("selected vertex out of range")
        sel = [v for v in range(g.n) if (vertices >> v) & 1]
    else:
        sel = sorted(set(vertices))
    if not sel:
        raise ValueError("empty vertex selection")
    if sel[0] < 0 or sel[-1] >= g.n:
        raise ValueError("selected vertex out of range")
    index = {v: i for i, v in enumerate(sel)}
    adj = [0] * len(sel)
    for i, v in enumerate(sel):
        for w in sel:
            if g.has_edge(v, w):
                adj[i] |= 1 << index[w]
    return Graph(len(sel), tuple(adj))


# -- graph6 ------------------------------------------------------------------
#
# Published format: N(n) is chr(63+n) for n <= 62, else '~' followed by three
# bytes encoding n in big-endian 6-bit groups (+63 each).  The upper triangle
# is read column by column -- (0,1), (0,2), (1,2), (0,3), ... -- packed into
# 6-bit groups (first pair = high bit), each group +63, zero-padded.


def _triangle_bits(g: Graph) -> list[int]:
    bits = []
    for col in range(1, g.n):
        for row in range(col):
            bits.append((g.adj[row] >> col) & 1)
    return bits


def to_graph6(g: Graph) -> bytes:
    """Encode as a graph6 byte string, bit-exact per the published format."""
    if g.n <= 62:
        head = bytes([63 + g.n])
    else:
        head = bytes([126, 63 + (g.n >> 12), 63 + ((g.n >> 6) & 63), 63 + (g.n & 63)])
    bits = _triangle_bits(g)
    while len(bits) % 6:
        bits.append(0)
    body = bytearray()
    for i in range(0, len(bits), 6):
        group = 0
        for b in bits[i : i + 6]:
            group = (group << 1) | b
        body.append(63 + group)
    return head + bytes(body)


def from_graph6(s: bytes | str) -> Graph:
    """Decode a graph6 byte string.  Strict: exact length, zero padding.

    Raises ValueError on malformed length, bytes outside [63, 126], or n > 64.
    """
    if isinstance(s, str):
        s = s.encode("ascii")
    if not s:
        raise ValueError("empty graph6 string")
    if any(b < 63 or b > 126 for b in s):
        raise ValueError("graph6 byte outside [63, 126]")
    if s[0] == 126:
        if len(s) < 4:
            raise ValueError("truncated graph6 header")
        if s[1] == 126:
            raise ValueError("graph6 order beyond supported range")
        n = ((s[1] - 63) << 12) | ((s[2] - 63) << 6) | (s[3] - 63)
        if n <= 62:
            raise ValueError("non-canonical graph6 header (long form for n <= 62)")
        body = s[4:]
    else:
        n = s[0] - 63
        body = s[1:]
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"graph6 order {n} outside [1, {MAX_VERTICES}]")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError("graph6 body length mismatch")
    bits = []
    for b in body:
        group = b - 63
        bits.extend((group >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ValueError("nonzero graph6 padding")
    adj = [0] * n
    i = 0
    for col in range(1, n):
        for row in range(col):
            if bits[i]:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
            i += 1
    return Graph(n, tuple(adj))
