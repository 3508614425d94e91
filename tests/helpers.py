"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the library's algorithms: connectivity is checked
by removing vertex subsets, even cycles by a from-scratch DFS over paths,
C4s by explicit 4-tuple search, so library results are checked against a
second route everywhere it matters.  Three helpers call into the library:
every_class shares each order's class list across the test modules,
count_generations records which families a test generates, and split_n7
has a grid split the all-graph family at n = 7.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from degpow import enumeration, verify
from degpow.enumeration import enumerate_graphs
from degpow.graphs import Graph, new_graph


@cache
def every_class(n: int) -> tuple[Graph, ...]:
    """enumerate_graphs' representatives at order n, enumerated once per
    session: each call computes every class's min-lex form."""
    acc: list[Graph] = []
    enumerate_graphs(n, visit=acc.append)
    return tuple(acc)


def count_generations(monkeypatch) -> list[tuple[int, bool]]:
    """Empty the class cache for the test, and record the (n, c4_free) of
    every family generated after that: whole, into the cache (the orders
    below it first, if they are not cached), or as the head of a split."""
    generated: list[tuple[int, bool]] = []
    head = enumeration._head

    def counting(n, c4_free, *frontier):
        generated.append((n, c4_free))
        return head(n, c4_free, *frontier)

    monkeypatch.setattr(enumeration, "_CLASS_CACHE", {})
    monkeypatch.setattr(enumeration, "_head", counting)
    monkeypatch.setattr(verify, "_head", counting)
    return generated


def split_n7(monkeypatch) -> None:
    """Have verify.run_grid split the all-graph family at n = 7 as it splits
    those from n = 8, at depth n, so a small grid runs all-graph subtree
    units; the rest of verify._split_depth is kept."""
    depth = verify._split_depth
    monkeypatch.setattr(verify, "_split_depth",
                        lambda n, c4_free: 7 if (n, c4_free) == (7, False) else depth(n, c4_free))


def remove_edge(g: Graph, u: int, v: int) -> Graph:
    """Return g minus edge uv (which must exist)."""
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u},{v}) not present")
    adj = list(g.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    return Graph(g.n, tuple(adj))


def all_labeled_graphs(n: int):
    """Every labeled simple graph on n vertices (2^(n choose 2) of them)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield new_graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


def is_connected_after_removal(g: Graph, removed: set[int]) -> bool:
    keep = [v for v in range(g.n) if v not in removed]
    if not keep:
        return True
    seen = {keep[0]}
    stack = [keep[0]]
    while stack:
        u = stack.pop()
        for v in keep:
            if v not in seen and g.has_edge(u, v):
                seen.add(v)
                stack.append(v)
    return len(seen) == len(keep)


def oracle_vertex_connectivity(g: Graph) -> int:
    """Smallest vertex set whose removal disconnects; n-1 for complete graphs."""
    if all(g.degree(v) == g.n - 1 for v in range(g.n)):
        return g.n - 1
    for size in range(g.n - 1):
        for cut in combinations(range(g.n), size):
            if not is_connected_after_removal(g, set(cut)):
                return size
    raise AssertionError("non-complete graph must have a cut")


def oracle_has_c4(g: Graph) -> bool:
    """Explicit 4-cycle subgraph search over vertex 4-tuples."""
    for a, b, c, d in combinations(range(g.n), 4):
        for w, x, y, z in ((a, b, c, d), (a, b, d, c), (a, c, b, d)):
            if g.has_edge(w, x) and g.has_edge(x, y) and g.has_edge(y, z) and g.has_edge(z, w):
                return True
    return False


def oracle_has_even_cycle(g: Graph) -> bool:
    """DFS over simple paths; reports a cycle of even length."""

    def extend(start: int, path: list[int], visited: set[int]) -> bool:
        u = path[-1]
        for v in range(g.n):
            if not g.has_edge(u, v):
                continue
            if v == start and len(path) >= 3 and len(path) % 2 == 0:
                return True
            if v > start and v not in visited:
                visited.add(v)
                path.append(v)
                if extend(start, path, visited):
                    return True
                path.pop()
                visited.remove(v)
        return False

    return any(extend(s, [s], {s}) for s in range(g.n))


def oracle_edge_connectivity(g: Graph) -> int:
    """Smallest edge subset whose removal disconnects the graph."""
    edges = list(g.edges())
    for size in range(len(edges) + 1):
        for cut in combinations(range(len(edges)), size):
            keep = [e for i, e in enumerate(edges) if i not in cut]
            h = new_graph(g.n, keep)
            if not is_connected_after_removal(h, set()):
                return size
    raise AssertionError("removing all edges of an n>=2 graph disconnects it")


def oracle_is_minimal(connectivity, g: Graph, t: int) -> bool:
    """The definition: connectivity(g) >= t, and < t after any one edge
    is deleted, for a function connectivity such as the cut oracles above."""
    return connectivity(g) >= t and all(
        connectivity(remove_edge(g, u, v)) < t for u, v in g.edges()
    )


def oracle_degeneracy(g: Graph) -> int:
    """Max over induced subgraphs of their minimum degree (the definition)."""
    best = 0
    for size in range(1, g.n + 1):
        for subset in combinations(range(g.n), size):
            sub = set(subset)
            mindeg = min(
                sum(1 for w in sub if w != v and g.has_edge(v, w)) for v in sub
            )
            best = max(best, mindeg)
    return best


def oracle_cycles(g: Graph) -> list[tuple[int, ...]]:
    """All cycles as vertex tuples, for count cross-checks."""
    found = []

    def extend(start: int, path: list[int], visited: set[int]) -> None:
        u = path[-1]
        for v in range(g.n):
            if not g.has_edge(u, v):
                continue
            if v == start and len(path) >= 3 and path[1] < path[-1]:
                found.append(tuple(path))
            elif v > start and v not in visited:
                visited.add(v)
                path.append(v)
                extend(start, path, visited)
                path.pop()
                visited.remove(v)

    for s in range(g.n):
        extend(s, [s], {s})
    return found


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
