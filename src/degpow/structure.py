"""Structural predicates: C4-freeness, even cycles, connectivity, degeneracy.

Connectivity follows Menger.  One kernel, _paths, counts arc-disjoint
s-t paths up to the threshold t in a unit-capacity digraph held as one
out-neighbour bitset per node, by BFS augmenting paths whose flow and
reverse residual arcs are bitsets too.  Local edge connectivity runs it
on the graph's own adjacency bitsets, local vertex connectivity on the
vertex-split digraph (node 2v is v-in, 2v+1 is v-out), and deleting an
edge clears its two arcs in a copy.  The vertex threshold test checks
only the pairs around one vertex v of least degree: v against each
vertex outside its closed neighbourhood, and each non-adjacent pair of
its neighbours (Esfahanian & Hakimi, Networks 14 (1984) 355-366).  The
connectivity is the largest t <= min degree that the threshold test
accepts.  The minimality checks run exact tests first, and flows (one per
deleted edge) decide only what passes them.  A minimally t-connected graph
has minimum degree t (Halin, J. Combin. Theory 7 (1969) 150-154), and its
vertices of degree > t induce a forest, because every cycle has a vertex of
degree t (Mader, Arch. Math. 23 (1972) 219-224).  For t = 2 the edge check
needs no flow: a minimally 2-edge-connected graph has minimum degree 2
(Mader, Math. Ann. 191 (1971) 21-28), and a 2-edge-connected graph is
minimal iff every edge lies in a cut pair, which one DFS decides by
cycle-space labels (Pritchard & Thurimella, ACM Trans. Algorithms 7(4)
(2011) 46).  The forest condition does not hold for edge-connectivity.
Degeneracy is a bitset k-core peel (Matula & Beck, J. ACM 30
(1983) 417-427): g is k-degenerate iff repeatedly dropping every vertex with
at most k surviving neighbours empties it.  A graph has no even cycle
exactly when it is an odd cactus, every block an edge or an odd cycle;
one DFS decides this without finding the blocks: every back edge must
close an odd cycle and no tree edge may lie on two of them.  Nothing is
memoised; every call recomputes from the graph.
"""

from __future__ import annotations

from typing import Iterator, Sequence

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


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def has_even_cycle(g: Graph) -> bool:
    """True iff some cycle has even length, by one DFS per component.

    Every non-tree edge of a DFS joins a vertex to an ancestor and closes
    a fundamental cycle.  An even one is an answer.  Two fundamental
    cycles that share a tree edge meet in one tree path, so together they
    form a theta, and a theta always has an even cycle.  Otherwise the
    fundamental cycles are edge-disjoint, every cycle is one of them, and
    all of them are odd.
    """
    n, adj = g.n, g.adj
    depth = [0] * n
    parent = [0] * n
    seen = 0
    on_cycle = 0  # vertices whose edge to their parent lies on a fundamental cycle
    for root in range(n):
        if (seen >> root) & 1:
            continue
        seen |= 1 << root
        stack = [root]
        while stack:
            u = stack[-1]
            fresh = adj[u] & ~seen
            if not fresh:
                stack.pop()
                continue
            v = (fresh & -fresh).bit_length() - 1
            parent[v], depth[v] = u, depth[u] + 1
            seen |= 1 << v
            stack.append(v)
            # v's visited neighbours other than u are its ancestors: a
            # finished vertex adjacent to v would have discovered it
            for w in _bits(adj[v] & seen & ~(1 << u)):
                if (depth[v] - depth[w]) % 2:
                    return True
                x = v
                while x != w:
                    if (on_cycle >> x) & 1:
                        return True
                    on_cycle |= 1 << x
                    x = parent[x]
    return False


def _min_degree(g: Graph) -> int:
    return min(map(int.bit_count, g.adj))


# -- path counting ------------------------------------------------------------


def _paths(net: Sequence[int], s: int, t: int, limit: int) -> int:
    """Arc-disjoint s-t paths, counted up to limit, in the unit-capacity
    digraph net (node u's out-neighbours are the bits of net[u]).

    Each round finds a BFS augmenting path.  flow[u] holds the arcs u->v
    that carry flow, and back[v] their reverse residual arcs v->u.
    """
    flow = [0] * len(net)
    back = [0] * len(net)
    parent = [0] * len(net)
    everything, target = (1 << len(net)) - 1, 1 << t
    paths = 0
    while paths < limit:
        unseen = everything ^ (1 << s)
        queue = [s]
        for u in queue:
            fresh = ((net[u] & ~flow[u]) | back[u]) & unseen
            if fresh & target:
                parent[t] = u
                break
            unseen ^= fresh
            while fresh:
                low = fresh & -fresh
                v = low.bit_length() - 1
                parent[v] = u
                queue.append(v)
                fresh ^= low
        else:
            return paths
        v = t
        while v != s:
            u = parent[v]
            if (back[u] >> v) & 1:  # cancel the flow on v->u
                back[u] ^= 1 << v
                flow[v] ^= 1 << u
            else:
                flow[u] |= 1 << v
                back[v] |= 1 << u
            v = u
        paths += 1
    return paths


def _split(g: Graph) -> list[int]:
    """The vertex-split digraph: node 2v is v-in, 2v+1 is v-out, with arcs
    v-in -> v-out and u-out -> w-in for each edge uw."""
    net = []
    for v, a in enumerate(g.adj):
        net.append(1 << (2 * v + 1))
        net.append(sum(1 << (2 * w) for w in _bits(a)))
    return net


def _has_vertex_connectivity(g: Graph, t: int) -> bool:
    """Local connectivity >= t on the pairs around a vertex v of least
    degree (Esfahanian & Hakimi, Networks 14 (1984) 355-366).  A smallest
    cut that misses v separates it from a vertex outside its closed
    neighbourhood; one that contains v is minimal, so v has a neighbour on
    each side and the cut separates two non-adjacent neighbours of v."""
    adj = g.adj
    v = min(range(g.n), key=lambda u: adj[u].bit_count())
    # the neighbourhood of a vertex of degree < t separates it (or the
    # graph is complete on at most t vertices)
    if adj[v].bit_count() < t:
        return False
    pairs = [(v, w) for w in _bits(((1 << g.n) - 1) & ~(adj[v] | 1 << v))]
    pairs += [(x, y) for x in _bits(adj[v]) for y in _bits(adj[v] & ~adj[x]) if y > x]
    net = _split(g)
    return all(_paths(net, 2 * x + 1, 2 * y, t) == t for x, y in pairs)


def _has_edge_connectivity(g: Graph, t: int) -> bool:
    if _min_degree(g) < t:
        return False
    return all(_paths(g.adj, 0, v, t) == t for v in range(1, g.n))


def vertex_connectivity(g: Graph) -> int:
    """The largest t <= min degree that the threshold test accepts.

    Complete graphs get the n-1 convention; disconnected graphs give 0.
    """
    delta = _min_degree(g)
    return next((t for t in range(delta, 0, -1) if _has_vertex_connectivity(g, t)), 0)


def edge_connectivity(g: Graph) -> int:
    """The largest t <= min degree that the threshold test accepts."""
    if g.n < 2:
        raise ValueError("edge connectivity needs n >= 2")
    delta = _min_degree(g)
    return next((t for t in range(delta, 0, -1) if _has_edge_connectivity(g, t)), 0)


def _high_degree_forest(g: Graph, t: int) -> bool:
    """True iff the vertices of degree > t induce a forest: every component
    of the induced subgraph has fewer edges than vertices."""
    adj = g.adj
    high = 0
    for v, a in enumerate(adj):
        if a.bit_count() > t:
            high |= 1 << v
    rest = high
    while rest:
        comp, grow = 0, rest & -rest
        while grow:
            comp |= grow
            reach = 0
            for v in _bits(grow):
                reach |= adj[v]
            grow = reach & high & ~comp
        ends = sum((adj[v] & high).bit_count() for v in _bits(comp))  # twice the edges
        if ends >= 2 * comp.bit_count():
            return False
        rest &= ~comp
    return True


def _cycle_space_labels(g: Graph) -> list[int] | None:
    """One label per edge from a DFS, or None if g is disconnected.

    Each non-tree edge gets its own bit; a tree edge gets the XOR of the
    bits of the non-tree edges whose fundamental cycles cover it.  A label
    is 0 exactly on a bridge, and two edges form a cut pair exactly when
    their labels are equal.
    """
    n, adj = g.n, g.adj
    parent = [0] * n
    label = [0] * n  # vertex v's entry ends up as the label of edge v-parent[v]
    order = [0]
    seen = 1
    stack = [0]
    back = 0
    while stack:
        u = stack[-1]
        fresh = adj[u] & ~seen
        if not fresh:
            stack.pop()
            continue
        v = (fresh & -fresh).bit_length() - 1
        parent[v] = u
        seen |= 1 << v
        order.append(v)
        stack.append(v)
        # v's visited neighbours other than u are its ancestors
        for w in _bits(adj[v] & seen & ~(1 << u)):
            bit = 1 << back
            back += 1
            label[v] ^= bit
            label[w] ^= bit
    if seen != (1 << n) - 1:
        return None
    # a subtree XOR leaves exactly the non-tree edges with one end inside it
    for v in reversed(order[1:]):
        label[parent[v]] ^= label[v]
    return [label[v] for v in order[1:]] + [1 << i for i in range(back)]


def _flows_minimally_t_connected(g: Graph, t: int) -> bool:
    """The definition by flows: t-connected, and one flow per deleted edge.

    A vertex cut of g-e smaller than t that misses the endpoints of e would
    cut g itself, so checking the endpoint pair's local connectivity in g-e
    suffices for the per-edge test.
    """
    if not _has_vertex_connectivity(g, t):
        return False
    net = _split(g)
    for u, v in g.edges():
        cut = net.copy()
        cut[2 * u + 1] ^= 1 << (2 * v)
        cut[2 * v + 1] ^= 1 << (2 * u)
        if _paths(cut, 2 * u + 1, 2 * v, t) == t:
            return False
    return True


def _flows_minimally_t_edge_connected(g: Graph, t: int) -> bool:
    """The definition by flows: t-edge-connected, and one flow per deleted edge."""
    if not _has_edge_connectivity(g, t):
        return False
    for u, v in g.edges():
        cut = list(g.adj)
        cut[u] ^= 1 << v
        cut[v] ^= 1 << u
        if _paths(cut, u, v, t) == t:
            return False
    return True


def is_minimally_t_connected(g: Graph, t: int) -> bool:
    """t-connected, and deleting any single edge breaks t-connectivity.

    Two exact prefilters come first: the minimum degree must equal t
    (Halin), and the vertices of degree > t must induce a forest (Mader).
    Flows decide what passes both.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if _min_degree(g) != t or not _high_degree_forest(g, t):
        return False
    return _flows_minimally_t_connected(g, t)


def is_minimally_t_edge_connected(g: Graph, t: int) -> bool:
    """t-edge-connected, and every single edge deletion breaks it.

    For t = 2 the minimum degree must equal 2 (Mader).  Then g is
    2-edge-connected iff it is connected and no label is 0, and g - e stays
    so unless it has a bridge f, that is unless e and f form a cut pair and
    share a label.  So g is minimal iff it is connected and every label is
    nonzero and occurs at least twice (Pritchard & Thurimella).  Any other t
    is decided by flows.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if t != 2:
        return _flows_minimally_t_edge_connected(g, t)
    if _min_degree(g) != 2:
        return False
    labels = _cycle_space_labels(g)
    if labels is None:
        return False
    once: set[int] = set()
    twice: set[int] = set()
    for label in labels:
        (twice if label in once else once).add(label)
    return 0 not in once and once == twice


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
