"""Isomorph-free exhaustive generation of small graphs and extremal search.

Canonical form: the lexicographically minimal upper-triangle adjacency bit
string (graph6 column order) over all vertex relabelings, found by
backtracking over the vertices attaining the minimal next column, twins
collapsed to one branch, with the unplaced vertices kept in cells as in
the partitions of McKay & Piperno (J. Symb. Comput. 60 (2014) 94-112); see
_canon_search.

Generation labels classes by a cheaper canonical labelling instead
(_label_search): equitable refinement by a splitter queue, then
individualisation of the first non-singleton cell's vertices, with
branches pruned by twins and by the orbits of the automorphisms found, as
in McKay & Piperno.  The least leaf certificate (the relabelled adjacency)
wins.  Its labelling is canonical, but not min-lex, so the min-lex form is
computed only where it is printed or promised: for the witnesses an
ExtremalTracker reports, and for the representatives enumerate_graphs
visits.

Each order grows from the cached order below: its classes with an
isolated vertex are those at n - 1 plus a vertex, and the rest come from
McKay's canonical augmentation (J. Algorithms 26 (1998) 306-324), depth
first from the order-below classes with at most 2 isolated vertices
(_non_edges).  A parent is extended by one non-edge per orbit of its
automorphism group, and a child kept only if the added edge lies in the
orbit of its canonical deletion edge (_kept).  A degree invariant rejects
most children before any search, as in nauty's geng.  A class is kept as
built and searched only where the answer is read: for generators, or for
a deletion tie its equitable cells leave open.  Both families are closed
under edge deletion, so every class is reached once.  All graphs are
closed under complement too, so their tree stops at N/2 edges, N =
n(n-1)/2 (_complement_below_middle).

_expand grows the tree below a list of entries (a class, its generators or
None, its edge count), stopping at a frontier edge count if given; _head
is that expansion from the order below.  A representative is its parent's
plus an edge, so a subtree expanded in any process yields the same
classes, and the subtrees below distinct frontier classes are disjoint:
verify.run_grid splits the large families so for a pool of workers.

Two families are generated per order, each whole and uncapped: all graphs
and the C4-free graphs, each in (edge count, adjacency) order, and kept
in a module cache with the orders below them.  _family_key names the one
a predicate reads, and _pass, the one pass over a family's classes for
extremal_ep, enumerate_graphs and verify.run_grid alike, cuts or filters
every other class out of it: an edge cap is a cut of that order, and an
even-cycle-free class is the C4-free family filtered by has_even_cycle, so
theorem 1 and corollary 1 at the same order share one generation.
enumerate_graphs then sorts the min-lex representatives of its classes.

The limits are resource limits only: orders 1 to ENUM_HARD_CAP, and the
top order only for the C4-free and even-cycle-free families (all graphs on
10 vertices are 12,005,168 classes).  Anything below that runs when asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import structure
from .graphs import Graph, add_edge, ep, permute, to_graph6

ENUM_HARD_CAP = 10


def _canon_search(n: int, adj: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Minimal column sequence and the permutation (position -> vertex).

    Column d of an ordering is the adjacency of its d-th vertex to the
    vertices before it, the first of them as the highest bit.  The unplaced
    vertices are cells (mask, value) of equal column value, in increasing
    value; placing v turns a cell of value x into its non-neighbours of v at
    2x and its neighbours at 2x+1, which keeps the order, since 2x+1 < 2y
    for x < y.  The first cell is the tie set.  A child whose first cell
    is already above the incumbent's next column is cut before it is built.

    Loose-vertex rule: if the tie set holds a vertex z with no unplaced
    neighbour, only z is branched on.  Take an optimal completion and move z
    one step earlier, past u.  At u's old position z's column is its tie
    value followed by zeros, no more than u's column there.  If the two are
    equal, u is tied with z and not adjacent to the vertices between, so the
    next column is unchanged as well, and each later vertex's bits to (u, z)
    turn from (a, 0) into (0, a).  So the string does not rise, and it stays
    equal only if u is adjacent to no unplaced vertex either: u is a twin of
    z.  Moving z forward step by step to the next position shows that every
    optimal completion places a twin of z next.  The loose vertices of the
    tie set are one twin class and z is its least vertex, the one the twin
    collapse keeps, so the skipped branches hold no optimal leaf: the
    permutation is that of the search without the rule.
    """
    if n > ENUM_HARD_CAP:
        raise ValueError(f"canonical form limited to n <= {ENUM_HARD_CAP}, got n={n}")
    if n <= 1:
        return [0] * n, [0] * n
    tau = _transposition_automorphisms(n, adj)
    best_cols: list[int] | None = None
    best_perm: list[int] | None = None
    gen = 0
    cols: list[int] = []
    perm: list[int] = []

    def dfs(depth: int, state: int, cells: list[tuple[int, int]], unassigned: int) -> None:
        # cells: the unassigned vertices as (mask, column value), increasing
        # value; state 1 iff cols[:depth+1] is below the incumbent's prefix
        nonlocal best_cols, best_perm, gen
        first, m = cells[0]
        # the tie set, one vertex per twin class, or a loose vertex alone
        kept: list[int] = []
        keptmask = 0
        mask = first
        while mask:
            low = mask & -mask
            v = low.bit_length() - 1
            mask ^= low
            if not adj[v] & unassigned:
                kept = [v]
                break
            if not tau[v] & keptmask:
                kept.append(v)
                keptmask |= low
        cols.append(m)
        entry_gen = gen
        for v in kept:
            if gen != entry_gen:
                # a descendant replaced the incumbent; its prefix equals ours
                state = 0
                entry_gen = gen
            rest = unassigned & ~(1 << v)
            if not rest:
                # a leaf below the incumbent replaces it; one equal to it is dropped
                if state or best_cols is None:
                    best_cols = cols.copy()
                    best_perm = perm + [v]
                    gen += 1
                continue
            av = adj[v]
            child_state = state
            if best_cols is not None and state == 0:
                # the child's next column, from its first cell, before building it
                mask, value = (first & ~(1 << v), m) if first != 1 << v else cells[1]
                c = value << 1 if mask & ~av else (value << 1) | 1
                b = best_cols[depth + 1]
                if c > b:
                    continue
                child_state = 1 if c < b else 0
            # each cell splits into non-neighbours of v, then neighbours
            outside = ~(av | (1 << v))
            split: list[tuple[int, int]] = []
            for mask, value in cells:
                if mask & outside:
                    split.append((mask & outside, value << 1))
                if mask & av:
                    split.append((mask & av, (value << 1) | 1))
            perm.append(v)
            dfs(depth + 1, child_state, split, rest)
            perm.pop()
        cols.pop()

    dfs(0, 0, [((1 << n) - 1, 0)], (1 << n) - 1)
    if best_cols is None or best_perm is None:
        raise RuntimeError(f"canonical search reached no leaf for n={n}")
    return best_cols, best_perm


def _refine(adj: tuple[int, ...], cells: list[int], queue: list[int]) -> list[int]:
    """Refine an ordered partition (vertex bitsets) by a splitter queue.

    Each queued splitter splits every cell by each vertex's neighbour count
    in it; the parts are ordered by that count and each is queued in turn.
    Relabelling the graph and the input relabels the result alike.  The
    result is equitable when the input was equitable before one part was
    split off a cell and queued: a count into the unqueued rest of that
    cell is the count into the whole cell less the count into the part.
    """
    n = len(adj)
    head = 0
    while head < len(queue) and len(cells) < n:
        splitter = queue[head]
        head += 1
        split: list[int] = []
        for cell in cells:
            if cell & (cell - 1):
                parts: dict[int, int] = {}
                mask = cell
                while mask:
                    low = mask & -mask
                    count = (adj[low.bit_length() - 1] & splitter).bit_count()
                    parts[count] = parts.get(count, 0) | low
                    mask ^= low
                if len(parts) > 1:
                    for count in sorted(parts):
                        split.append(parts[count])
                        queue.append(parts[count])
                    continue
            split.append(cell)
        cells = split
    return cells


def _label_search(
    n: int, adj: tuple[int, ...], root: list[int] | None = None
) -> tuple[tuple[int, ...], list[int], list[list[int]]]:
    """A canonical labelling by refinement and individualisation: the
    certificate (the relabelled adjacency), the permutation (position ->
    vertex), and generators (vertex -> vertex) of the automorphism group.

    The root is the unit partition refined by degree (or root, if the
    caller has it).  A node branches on
    each vertex of its first non-singleton cell, individualised ahead of
    the rest of it, unless the vertex is a twin of an explored sibling or
    in the orbit of one under the generators so far that fix the node's
    individualised vertices.  (A twin transposition from an individualised
    vertex fixes no such node, so the twin test prunes what the orbits
    miss.)  The least leaf certificate wins, and a leaf equal to the
    incumbent gives an automorphism.  The certificate is not the min-lex
    form.
    """
    tau = _transposition_automorphisms(n, adj)
    gens = _twin_generators(n, tau)
    best_cert: tuple[int, ...] | None = None
    best_perm: list[int] = []
    prefix: list[int] = []

    def search(cells: list[int]) -> None:
        nonlocal best_cert, best_perm
        if len(cells) == n:
            perm = [cell.bit_length() - 1 for cell in cells]
            pos = _inverse(perm)
            rows = []
            for v in perm:
                row = 0
                mask = adj[v]
                while mask:
                    low = mask & -mask
                    row |= 1 << pos[low.bit_length() - 1]
                    mask ^= low
                rows.append(row)
            cert = tuple(rows)
            if best_cert is None or cert < best_cert:
                best_cert, best_perm = cert, perm
            elif cert == best_cert:
                # best_perm[i] -> perm[i] preserves adjacency
                gamma = [0] * n
                for b, w in zip(best_perm, perm):
                    gamma[b] = w
                gens.append(gamma)
            return
        i = next(i for i, cell in enumerate(cells) if cell & (cell - 1))
        target = cells[i]
        explored = 0
        mask = target
        while mask:
            low = mask & -mask
            v = low.bit_length() - 1
            mask ^= low
            if explored and (tau[v] & explored or _vertex_orbit(gens, prefix, v) & explored):
                continue
            explored |= low
            prefix.append(v)
            search(_refine(adj, cells[:i] + [low, target ^ low] + cells[i + 1:], [low]))
            prefix.pop()

    full = (1 << n) - 1
    search(_refine(adj, [full], [full]) if root is None else root)
    if best_cert is None:
        raise RuntimeError(f"labelling search reached no leaf for n={n}")
    return best_cert, best_perm, gens


def _vertex_orbit(gens: list[list[int]], fixed: list[int], v: int) -> int:
    """The orbit of v, as a bitset, under the generators that fix every
    vertex of fixed."""
    stabiliser = [gamma for gamma in gens if all(gamma[x] == x for x in fixed)]
    orbit = 1 << v
    frontier = [v]
    while frontier:
        x = frontier.pop()
        for gamma in stabiliser:
            y = gamma[x]
            if not (orbit >> y) & 1:
                orbit |= 1 << y
                frontier.append(y)
    return orbit


def _twin_generators(n: int, tau: list[int]) -> list[list[int]]:
    """Transpositions of twins; twins form equivalence classes, so those
    from each class's least vertex generate every twin transposition."""
    gens: list[list[int]] = []
    for v in range(n):
        lower = tau[v] & ((1 << v) - 1)
        if lower:
            swap = list(range(n))
            u = (lower & -lower).bit_length() - 1
            swap[u], swap[v] = v, u
            gens.append(swap)
    return gens


def _transposition_automorphisms(n: int, adj: tuple[int, ...]) -> list[int]:
    """tau[u] = bitset of v such that swapping u and v preserves adjacency."""
    tau = [0] * n
    for u in range(n):
        au = adj[u]
        for v in range(u + 1, n):
            mask = ~((1 << u) | (1 << v))
            if au & mask == adj[v] & mask:
                tau[u] |= 1 << v
                tau[v] |= 1 << u
    return tau


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: order byte, then the minimal packed triangle.

    Two graphs have equal canonical form iff they are isomorphic.
    """
    cols, _ = _canon_search(g.n, g.adj)
    return bytes([g.n]) + _pack_cols(g.n, cols)


def _pack_cols(n: int, cols: list[int]) -> bytes:
    big = 0
    for d in range(1, n):
        big = (big << d) | cols[d]
    nbits = n * (n - 1) // 2
    return big.to_bytes((nbits + 7) // 8, "big")


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled copy of g."""
    return _canon_pair(g)[1]


def _canon_pair(g: Graph) -> tuple[bytes, Graph]:
    """Canonical form and the canonically relabeled graph."""
    cols, perm = _canon_search(g.n, g.adj)
    return bytes([g.n]) + _pack_cols(g.n, cols), permute(g, _inverse(perm))


def _inverse(perm: list[int]) -> list[int]:
    inverse = [0] * len(perm)
    for pos, v in enumerate(perm):
        inverse[v] = pos
    return inverse


# One row per SearchPredicate bound: field, least value, describe() label
# and, for a leaf bound, the name of the structure test a finished graph
# must pass, read off the module when a pass starts so that a wrapper set
# there later (perfbench's tracer) is the one called.
_BOUNDS = (
    ("max_edges", 0, "max_edges={}", None),
    ("min_degree", 0, "min_degree={}", "_has_min_degree"),
    ("minimally_connected", 1, "minimally_{}_connected", "is_minimally_t_connected"),
    ("minimally_edge_connected", 1, "minimally_{}_edge_connected",
     "is_minimally_t_edge_connected"),
    ("degenerate", 1, "{}_degenerate", "is_k_degenerate"),
)


@dataclass(frozen=True)
class SearchPredicate:
    """Conjunction of hereditary prune filters and leaf filters.

    c4_free and even_cycle_free select the generated family and filter it,
    and max_edges cuts it; all three are monotone under edge addition.  The
    rest apply to finished graphs only.  _BOUNDS states each bound.
    """

    c4_free: bool = False
    even_cycle_free: bool = False
    max_edges: int | None = None
    min_degree: int | None = None
    minimally_connected: int | None = None
    minimally_edge_connected: int | None = None
    degenerate: int | None = None

    def __post_init__(self) -> None:
        for name, least, _, _ in _BOUNDS:
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")

    def hereditary_key(self, n: int) -> tuple[bool, bool, int]:
        cap = n * (n - 1) // 2
        if self.max_edges is not None:
            cap = min(cap, self.max_edges)
        return (self.c4_free, self.even_cycle_free, cap)

    def _leaf_tests(self) -> list[tuple[Callable[[Graph, int], bool], int]]:
        """(test, value) per leaf bound set; g passes if every test(g, value)."""
        return [(getattr(structure, test), value) for name, _, _, test in _BOUNDS
                if test is not None and (value := getattr(self, name)) is not None]

    def describe(self) -> str:
        parts = [flag for flag in ("c4_free", "even_cycle_free") if getattr(self, flag)]
        parts += [label.format(value) for name, _, label, _ in _BOUNDS
                  if (value := getattr(self, name)) is not None]
        return ",".join(parts) or "all"


# the generated families, keyed by (n, c4_free)
_CLASS_CACHE: dict[tuple[int, bool], tuple[Graph, ...]] = {}


def _creates_c4(adj: tuple[int, ...], u: int, v: int) -> bool:
    # parent is C4-free and uv is a non-edge; any new C4 runs through uv
    au = adj[u]
    mask = adj[v]
    while mask:
        low = mask & -mask
        if adj[low.bit_length() - 1] & au:
            return True
        mask ^= low
    return False


def _pair_orbit(gens: list[list[int]], pair: tuple[int, int]) -> set[tuple[int, int]]:
    """The orbit of a vertex pair (u < v) under the group gens generate."""
    orbit = {pair}
    frontier = [pair]
    while frontier:
        a, b = frontier.pop()
        for gamma in gens:
            x, y = gamma[a], gamma[b]
            image = (x, y) if x < y else (y, x)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def _non_edges(g: Graph, c4_free: bool) -> list[tuple[int, int]]:
    """The non-edges uv (u < v) whose child may be kept: covering every
    isolated vertex of g (deleting an edge never un-isolates one), making
    no C4 if c4_free, and passing the degree rule: in g's degrees uv gets
    the degree sum deg[u] + deg[v] + 2 and an edge xu deg[x] + deg[u] + 1,
    so u with a neighbour of degree deg[v] + 2, or v with one of deg[u] + 2,
    makes _deletion_ties reject the child.  Orbits are kept or dropped
    whole."""
    adj = g.adj
    deg = [a.bit_count() for a in adj]
    isolated = sum(1 << x for x, d in enumerate(deg) if not d)
    # at_least[d]: the vertices of degree d or more; a non-edge uv has deg[v] <= n - 2
    at_least = [0] * (g.n + 1)
    for x, d in enumerate(deg):
        at_least[d] |= 1 << x
    for d in range(g.n - 1, -1, -1):
        at_least[d] |= at_least[d + 1]
    return [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not (adj[u] >> v) & 1
        and not isolated & ~(1 << u | 1 << v)
        and not adj[u] & at_least[deg[v] + 2] and not adj[v] & at_least[deg[u] + 2]
        and not (c4_free and _creates_c4(adj, u, v))
    ]


def _orbit_reps(pairs: list[tuple[int, int]], gens: list[list[int]]) -> list[tuple[int, int]]:
    """The least pair of each orbit of gens in pairs, a union of orbits."""
    seen: set[tuple[int, int]] = set()
    reps: list[tuple[int, int]] = []
    for pair in pairs:
        if pair not in seen:
            reps.append(pair)
            seen |= _pair_orbit(gens, pair)
    return reps


def _deletion_ties(adj: tuple[int, ...], u: int, v: int) -> list[tuple[int, int]] | None:
    """Edges xy (x < y) whose invariant equals uv's, or None if some edge's
    invariant exceeds it.  The invariant orders edges by degree sum, then
    smaller degree, then common neighbours."""
    deg = [a.bit_count() for a in adj]
    du, dv = deg[u], deg[v]
    target = ((du + dv) << 8) | (min(du, dv) << 4) | (adj[u] & adj[v]).bit_count()
    ties: list[tuple[int, int]] = []
    for x, ax in enumerate(adj):
        dx = deg[x]
        mask = ax >> (x + 1)
        y = x + 1
        while mask:
            if mask & 1:
                dy = deg[y]
                value = ((dx + dy) << 8) | (min(dx, dy) << 4) | (ax & adj[y]).bit_count()
                if value > target:
                    return None
                if value == target:
                    ties.append((x, y))
            mask >>= 1
            y += 1
    return ties


def _kept(child: Graph, u: int, v: int) -> tuple[bool, list[list[int]] | None]:
    """Whether child, the parent plus uv, is kept, and its generators if
    a search ran.  uv must lie in the orbit of the canonical deletion edge,
    which maximises in turn the invariant of _deletion_ties, the sorted
    cells of its ends in the child's equitable partition, and the sorted
    labelled positions of its ends: only a tie on the first two costs a
    search."""
    ties = _deletion_ties(child.adj, u, v)
    if ties is None:
        return False, None
    if len(ties) == 1:
        return True, None
    full = (1 << child.n) - 1
    cells = _refine(child.adj, [full], [full])
    index = {x: i for i, cell in enumerate(cells) for x in range(child.n) if cell >> x & 1}

    def key(pair: tuple[int, int]) -> list[int]:
        return sorted((index[pair[0]], index[pair[1]]))

    top = max(map(key, ties))
    if key((u, v)) != top:
        return False, None
    tops = [pair for pair in ties if key(pair) == top]
    if len(tops) == 1:
        return True, None
    _, perm, gens = _label_search(child.n, child.adj, cells)
    pos = _inverse(perm)
    best = max(tops, key=lambda pair: sorted((pos[pair[0]], pos[pair[1]])))
    return (u, v) in _pair_orbit(gens, best), gens


# a class, its automorphism generators (None until searched), its edge count
_Entry = tuple[Graph, list[list[int]] | None, int]


def _complement_below_middle(g: Graph, m: int, c4_free: bool) -> list[Graph]:
    """The complement of an all-graph class with m edges, if m is below
    half the vertex pairs and no vertex is adjacent to every other (else
    the complement has an isolated vertex, and the order below gave it)."""
    full = (1 << g.n) - 1
    if (not c4_free and 2 * m < g.n * (g.n - 1) // 2
            and all(a | 1 << v != full for v, a in enumerate(g.adj))):
        return [Graph(g.n, tuple(full ^ (1 << v) ^ a for v, a in enumerate(g.adj)))]
    return []


def _expand(entries: list[_Entry], c4_free: bool,
            frontier: int | None = None) -> tuple[list[Graph], list[_Entry]]:
    """Every class below the entries in the augmentation tree, and the
    frontier: the entries reached with frontier edges, returned among the
    classes but not expanded.  An entry is searched for its generators only
    when it has 2 candidate non-edges or more.  The all-graph tree stops at
    the middle edge count, and its classes bring their complements."""
    found: list[Graph] = []
    reached: list[_Entry] = []
    stack = list(entries)
    while stack:
        entry = stack.pop()
        g, gens, m = entry
        if not c4_free and 2 * (m + 1) > g.n * (g.n - 1) // 2:
            continue
        if frontier is not None and m >= frontier:
            reached.append(entry)
            continue
        pairs = _non_edges(g, c4_free)
        if len(pairs) > 1:
            if gens is None:
                gens = _label_search(g.n, g.adj)[2]
            pairs = _orbit_reps(pairs, gens)
        for u, v in pairs:
            child = add_edge(g, u, v)
            kept, child_gens = _kept(child, u, v)
            if kept:
                found.append(child)
                found += _complement_below_middle(child, m + 1, c4_free)
                stack.append((child, child_gens, m + 1))
    return found, reached


def _head(n: int, c4_free: bool, frontier: int | None = None) -> tuple[list[Graph], list[_Entry]]:
    """The order below's classes plus a vertex, the classes grown from
    them down to frontier edges (all of them for None), for all graphs with
    complements, and the frontier entries below which the rest lies."""
    below = _family(n - 1, c4_free) if n > 1 else (Graph(0, ()),)
    roots = [(Graph(n, g.adj + (0,)), None, g.edge_count()) for g in below]
    found, reached = _expand([root for root in roots if root[0].adj.count(0) <= 2],
                             c4_free, frontier)
    return [*(g for g, _, _ in roots),
            *(h for g, _, m in roots for h in _complement_below_middle(g, m, c4_free)),
            *found], reached


def _generate(n: int, c4_free: bool) -> tuple[Graph, ...]:
    """Every isomorphism class at order n, or every C4-free one, in (edge
    count, adjacency) order: _head with no frontier."""
    return tuple(sorted(_head(n, c4_free)[0], key=lambda g: (g.edge_count(), g.adj)))


def _family(n: int, c4_free: bool) -> tuple[Graph, ...]:
    """The family (n, c4_free) in _generate's order, generated once per
    process."""
    key = (n, c4_free)
    if key not in _CLASS_CACHE:
        _CLASS_CACHE[key] = _generate(*key)
    return _CLASS_CACHE[key]


def _family_key(n: int, pred: SearchPredicate) -> tuple[int, bool]:
    """The family pred's classes are read from, (n, c4_free): the C4-free
    graphs for either cycle filter, all graphs otherwise."""
    return n, pred.c4_free or pred.even_cycle_free


def _pass(n: int, classes: Iterable[Graph],
          probes: Sequence[tuple[SearchPredicate, Callable[[Graph], None]]]) -> None:
    """One pass over classes of one family, in the order given, for every
    probe (a predicate and a visit) that reads it.  A probe's visit gets
    each class within its edge cap, and without an even cycle if it filters
    them, that passes its leaf tests.  A probe with neither a cap below
    the order's edge count nor a cycle filter takes every class uncut."""
    full = n * (n - 1) // 2
    tests = []
    for pred, visit in probes:
        _, ecf, cap = pred.hereditary_key(n)
        tests.append((ecf or cap < full, ecf, cap, pred._leaf_tests(), visit))
    for g in classes:
        for cut, ecf, cap, leaf_tests, visit in tests:
            if cut and (g.edge_count() > cap or ecf and structure.has_even_cycle(g)):
                continue
            for test, value in leaf_tests:
                if not test(g, value):
                    break
            else:
                visit(g)


def check_enumerable(n: int, pred: SearchPredicate) -> None:
    """Raise ValueError unless enumerate_graphs can run at this order.

    n=10 only runs C4-free or even-cycle-free classes: all graphs on 10
    vertices cannot finish.  n=9 over all graphs runs, slowly; how large an
    order a run may ask for is the caller's choice (the CLI's guard).
    """
    if not 1 <= n <= ENUM_HARD_CAP:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUM_HARD_CAP}")
    if n == ENUM_HARD_CAP and not _family_key(n, pred)[1]:
        raise ValueError(
            f"n={n} enumeration needs a C4-free or even-cycle-free class; "
            "all graphs on 10 vertices are 12,005,168 classes"
        )


def enumerate_graphs(
    n: int,
    pred: SearchPredicate = SearchPredicate(),
    visit: Callable[[Graph], None] | None = None,
) -> int:
    """Visit one canonical representative per isomorphism class passing pred.

    Returns the number visited.  Visit order is deterministic: increasing
    edge count, then canonical form, so given a visit it holds every
    accepted representative, with its canonical form, to sort them before
    the first visit.  Orders check_enumerable rejects raise before anything
    is generated.
    """
    check_enumerable(n, pred)
    found: list[Graph] = []
    _pass(n, _family(*_family_key(n, pred)), [(pred, found.append)])
    if visit is not None:
        reps = sorted(((g.edge_count(), *_canon_pair(g)) for g in found), key=lambda r: r[:2])
        for _, _, rep in reps:
            visit(rep)
    return len(found)


class ExtremalTracker:
    """Every maximiser of e_p over the visited graphs, for several p at once.

    Pass visit to enumerate_graphs or in a probe to _pass; ties are all
    kept.  best[p] is None until a graph is visited, maximisers[p] holds
    the visited graphs attaining it, and count is the number of graphs
    visited.  At p = 1 the maximum is twice the largest edge count seen.
    Trackers over disjoint parts of a class merge into the tracker over the
    whole, whatever the split and the visit order.
    """

    def __init__(self, p_values: Sequence[int]) -> None:
        self.best: dict[int, int | None] = dict.fromkeys(p_values)
        self.maximisers: dict[int, list[Graph]] = {p: [] for p in self.best}
        self.count = 0

    def visit(self, g: Graph) -> None:
        self.count += 1
        for p, best in self.best.items():
            value = ep(g, p)
            if best is None or value > best:
                self.best[p] = value
                self.maximisers[p] = [g]
            elif value == best:
                self.maximisers[p].append(g)

    def merge(self, other: ExtremalTracker) -> None:
        """Fold in a tracker over other graphs of the class, for the same p:
        the larger maximum wins, the maximisers of a tied maximum are
        united, and the counts add."""
        self.count += other.count
        for p, theirs in other.best.items():
            ours = self.best[p]
            if theirs is None:
                continue
            if ours is None or theirs > ours:
                self.best[p] = theirs
                self.maximisers[p] = list(other.maximisers[p])
            elif theirs == ours:
                self.maximisers[p] += other.maximisers[p]

    def witnesses(self, p: int) -> tuple[str, ...]:
        """graph6 of the maximisers' canonical representatives, sorted."""
        return tuple(sorted(to_graph6(canonical_graph(w)).decode("ascii")
                            for w in self.maximisers[p]))


@dataclass(frozen=True)
class ExtremalReport:
    """Result of an extremal degree-power search over a predicate class.

    witnesses holds every extremal graph up to isomorphism as graph6 of the
    canonical representative, sorted; graphs_examined is the number of
    classes that satisfied the predicate.  max_value is None iff the class
    is empty.
    """

    n: int
    p: int
    predicate: str
    max_value: int | None
    witnesses: tuple[str, ...]
    graphs_examined: int


def extremal_ep(n: int, p: int, pred: SearchPredicate = SearchPredicate()) -> ExtremalReport:
    """Maximize the degree power over the predicate class, keeping all ties."""
    if p < 1:
        raise ValueError("p must be >= 1")
    check_enumerable(n, pred)
    tracker = ExtremalTracker((p,))
    _pass(n, _family(*_family_key(n, pred)), [(pred, tracker.visit)])
    return ExtremalReport(
        n=n,
        p=p,
        predicate=pred.describe(),
        max_value=tracker.best[p],
        witnesses=tracker.witnesses(p),
        graphs_examined=tracker.count,
    )
