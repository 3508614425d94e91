"""Structural predicates: C4-freeness, even cycles, connectivity, degeneracy.

Connectivity follows Menger: local vertex connectivity is a unit-capacity
max-flow in the vertex-split network, local edge connectivity a max-flow on
the graph itself.  Flows are capped at the threshold t being tested, which
keeps the minimality checks (one flow per deleted edge) cheap at desk scale;
the connectivity itself is the largest t <= min degree that the threshold
test accepts.  Degeneracy is a bitset k-core peel (Matula & Beck, J. ACM 30
(1983) 417-427): g is k-degenerate iff repeatedly dropping every vertex with
at most k surviving neighbours empties it.  Even-cycle detection goes
through the block decomposition: a graph has no even cycle exactly when
every block is an edge or an odd cycle.  Nothing is memoised; every call
recomputes from the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import Graph


def has_c4(g: Graph) -> bool:
    """True iff some vertex pair has >= 2 common neighbors (a 4-cycle)."""
    adj = g.adj
    for u in range(g.n):
        au = adj[u]
        for v in range(u + 1, g.n):
            if (au & adj[v]).bit_count() >= 2:
                return True
    return False


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (maximal 2-connected subgraphs and bridges) as vertex bitsets.

    Every edge lies in exactly one block; two blocks share at most one
    vertex, so a block's edges are exactly the edges inside its vertex set.
    Blocks of size 2 are bridges.  Isolated vertices appear in no block.
    """

    blocks: tuple[int, ...]
    cut_vertices: int


def block_decomposition(g: Graph) -> BlockDecomposition:
    n, adj = g.n, g.adj
    disc = [0] * n  # 0 = unvisited, else 1-based discovery time
    low = [0] * n
    timer = 1
    blocks: list[int] = []
    cut = 0
    for root in range(n):
        if disc[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        edge_stack: list[tuple[int, int]] = []
        # stack entries: (vertex, parent, iterator over neighbor bits)
        stack = [(root, -1, _bits(adj[root]))]
        while stack:
            u, parent, it = stack[-1]
            advanced = False
            for v in it:
                if v == parent:
                    continue
                if not disc[v]:
                    edge_stack.append((u, v))
                    disc[v] = low[v] = timer
                    timer += 1
                    if u == root:
                        root_children += 1
                    stack.append((v, u, _bits(adj[v])))
                    advanced = True
                    break
                if disc[v] < disc[u]:
                    edge_stack.append((u, v))
                    if disc[v] < low[u]:
                        low[u] = disc[v]
            if advanced:
                continue
            stack.pop()
            if stack:
                pu = stack[-1][0]
                if low[u] < low[pu]:
                    low[pu] = low[u]
                if low[u] >= disc[pu]:
                    # edges above (pu, u) form one block
                    members = 0
                    while True:
                        a, b = edge_stack.pop()
                        members |= (1 << a) | (1 << b)
                        if (a, b) == (pu, u):
                            break
                    blocks.append(members)
                    if pu != root or root_children >= 2:
                        cut |= 1 << pu
    return BlockDecomposition(tuple(blocks), cut)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def has_even_cycle(g: Graph) -> bool:
    """True iff some block is neither a single edge nor an odd cycle.

    A 2-connected block with more edges than vertices contains a theta
    subgraph, two of whose three cycles sum to even length; a cycle block
    is even exactly when its length is.
    """
    for block in block_decomposition(g).blocks:
        size = block.bit_count()
        if size < 3:
            continue
        m = sum((g.adj[v] & block).bit_count() for v in _bits(block)) // 2
        if m > size or size % 2 == 0:
            return True
    return False


def all_cycles(g: Graph) -> Iterator[tuple[int, ...]]:
    """Enumerate every cycle once, as a vertex tuple starting at its minimum.

    Exponential in general; intended for sparse desk-scale graphs (the
    chord and degree-3 lemma checks).
    """
    n, adj = g.n, g.adj
    for s in range(n):
        stack: list[tuple[int, int, tuple[int, ...]]] = [(s, 1 << s, (s,))]
        while stack:
            u, visited, path = stack.pop()
            nbrs = adj[u]
            if len(path) >= 3 and (nbrs >> s) & 1 and path[1] < u:
                yield path
            for v in _bits(nbrs & ~visited):
                if v > s:
                    stack.append((v, visited | (1 << v), path + (v,)))


def cycle_has_chord(g: Graph, cycle: tuple[int, ...]) -> bool:
    """True iff some edge joins two non-consecutive vertices of the cycle."""
    k = len(cycle)
    members = 0
    for v in cycle:
        members |= 1 << v
    for i, v in enumerate(cycle):
        allowed = (1 << cycle[(i - 1) % k]) | (1 << cycle[(i + 1) % k])
        if g.adj[v] & members & ~allowed:
            return True
    return False


# -- max-flow kernels ---------------------------------------------------------


class _FlowNet:
    """Unit-capacity arc network; arc i and i^1 are mutual residuals."""

    __slots__ = ("heads", "caps", "out")

    def __init__(self) -> None:
        self.heads: list[int] = []
        self.caps: list[int] = []
        self.out: list[list[int]] = []

    def add_node(self) -> int:
        self.out.append([])
        return len(self.out) - 1

    def add_arc(self, u: int, v: int, cap: int, rev_cap: int = 0) -> int:
        i = len(self.heads)
        self.heads.extend((v, u))
        self.caps.extend((cap, rev_cap))
        self.out[u].append(i)
        self.out[v].append(i + 1)
        return i

    def max_flow(self, caps: list[int], s: int, t: int, limit: int) -> int:
        heads, out = self.heads, self.out
        flow = 0
        nn = len(self.out)
        while flow < limit:
            parent = [-1] * nn
            parent[s] = -2
            queue = [s]
            found = False
            for u in queue:
                for a in out[u]:
                    if caps[a] and parent[heads[a]] == -1:
                        v = heads[a]
                        parent[v] = a
                        if v == t:
                            found = True
                            break
                        queue.append(v)
                if found:
                    break
            if not found:
                break
            v = t
            while v != s:
                a = parent[v]
                caps[a] -= 1
                caps[a ^ 1] += 1
                v = heads[a ^ 1]
            flow += 1
        return flow


def _vertex_net(g: Graph) -> tuple[_FlowNet, dict[tuple[int, int], tuple[int, int]]]:
    """Split network: node 2v is v-in, 2v+1 is v-out; vertex caps are 1."""
    net = _FlowNet()
    for _ in range(2 * g.n):
        net.add_node()
    for v in range(g.n):
        net.add_arc(2 * v, 2 * v + 1, 1)
    edge_arcs = {}
    for u, v in g.edges():
        a = net.add_arc(2 * u + 1, 2 * v, 1)
        b = net.add_arc(2 * v + 1, 2 * u, 1)
        edge_arcs[(u, v)] = (a, b)
    return net, edge_arcs


def _edge_net(g: Graph) -> tuple[_FlowNet, dict[tuple[int, int], int]]:
    net = _FlowNet()
    for _ in range(g.n):
        net.add_node()
    edge_arcs = {}
    for u, v in g.edges():
        edge_arcs[(u, v)] = net.add_arc(u, v, 1, rev_cap=1)
    return net, edge_arcs


def _has_vertex_connectivity(g: Graph, t: int) -> bool:
    # the neighbourhood of a vertex of degree < t separates it (or the
    # graph is complete on at most t vertices)
    if min(a.bit_count() for a in g.adj) < t:
        return False
    net, _ = _vertex_net(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            if net.max_flow(net.caps.copy(), 2 * u + 1, 2 * v, t) < t:
                return False
    return True


def _has_edge_connectivity(g: Graph, t: int) -> bool:
    if min(a.bit_count() for a in g.adj) < t:
        return False
    net, _ = _edge_net(g)
    return all(net.max_flow(net.caps.copy(), 0, v, t) == t for v in range(1, g.n))


def vertex_connectivity(g: Graph) -> int:
    """The largest t <= min degree that the threshold test accepts.

    Complete graphs get the n-1 convention; disconnected graphs give 0.
    """
    delta = min(a.bit_count() for a in g.adj)
    return next((t for t in range(delta, 0, -1) if _has_vertex_connectivity(g, t)), 0)


def edge_connectivity(g: Graph) -> int:
    """The largest t <= min degree that the threshold test accepts."""
    if g.n < 2:
        raise ValueError("edge connectivity needs n >= 2")
    delta = min(a.bit_count() for a in g.adj)
    return next((t for t in range(delta, 0, -1) if _has_edge_connectivity(g, t)), 0)


def is_minimally_t_connected(g: Graph, t: int) -> bool:
    """t-connected, and deleting any single edge breaks t-connectivity.

    A vertex cut of g-e smaller than t that misses the endpoints of e would
    cut g itself, so checking the endpoint pair's local connectivity in g-e
    suffices for the per-edge test.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if not _has_vertex_connectivity(g, t):
        return False
    net, edge_arcs = _vertex_net(g)
    for (u, v), (a, b) in edge_arcs.items():
        caps = net.caps.copy()
        caps[a] = caps[b] = 0
        if net.max_flow(caps, 2 * u + 1, 2 * v, t) >= t:
            return False
    return True


def is_minimally_t_edge_connected(g: Graph, t: int) -> bool:
    """t-edge-connected, and every single edge deletion breaks it."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if not _has_edge_connectivity(g, t):
        return False
    net, edge_arcs = _edge_net(g)
    for (u, v), a in edge_arcs.items():
        caps = net.caps.copy()
        caps[a] = caps[a ^ 1] = 0
        if net.max_flow(caps, u, v, t) >= t:
            return False
    return True


def _peels(g: Graph, k: int) -> bool:
    """True iff the (k+1)-core of g is empty (one round drops every
    surviving vertex with at most k surviving neighbours)."""
    adj, alive = g.adj, (1 << g.n) - 1
    while alive:
        drop = 0
        for v in _bits(alive):
            if (adj[v] & alive).bit_count() <= k:
                drop |= 1 << v
        if not drop:
            return False
        alive ^= drop
    return True


def degeneracy(g: Graph) -> int:
    """The least k whose peel empties the graph."""
    k = 0
    while not _peels(g, k):
        k += 1
    return k


def is_k_degenerate(g: Graph, k: int) -> bool:
    if k < 1:
        raise ValueError("k must be >= 1")
    return _peels(g, k)


def is_maximal_k_degenerate(g: Graph, k: int) -> bool:
    """k-degenerate with the maximum possible k*n - k(k+1)/2 edges.

    Hitting the edge maximum means no edge can be added, so no separate
    augmentation check is needed.
    """
    if g.n < k + 1:
        raise ValueError("need n >= k+1")
    return is_k_degenerate(g, k) and g.edge_count() == k * g.n - k * (k + 1) // 2
