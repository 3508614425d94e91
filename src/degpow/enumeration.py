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
branches pruned by twins only.  The least leaf certificate (the relabelled
adjacency) wins.  Its labelling is canonical, but not min-lex, so the
min-lex form is computed only where it is printed or promised: for the
witnesses an ExtremalTracker reports, and for the representatives
enumerate_graphs visits.

Each order grows from the cached order below by McKay's canonical
augmentation by vertices (J. Algorithms 26 (1998) 306-324), as nauty's
geng grows graphs: a child is a class of the order below plus a vertex v
joined to a set S (_candidate_sets).  S leaves v of least degree, and for
C4-free graphs no two vertices of S share a neighbour.  One S is taken per
orbit of the parent's automorphism group, and a child is kept only if v
lies in the orbit of its canonical deletion vertex (_kept).  Both families
are closed under vertex deletion, so every class is reached once, from its
canonical parent.  Two exact twin shortcuts keep searches off the common
cases: a parent whose equitable cells are each one twin class takes its
twin transpositions as generators (_generators), and a child is kept
without a search once its deletion ties are twins of v.  All graphs are
closed under complement too, so their children stop at N/2 edges,
N = n(n-1)/2, and each class below that brings its complement.

_children returns the classes whose canonical parents are in a list of
classes of the order below, so disjoint lists of parents give disjoint
classes, whatever process grows them: verify.run_grid splits the large
families so for a pool of workers.

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
from itertools import combinations
from typing import Callable, Iterable, Sequence

from . import structure
from .graphs import Graph, ep, permute, to_graph6

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
    caller has it).  A node branches on each vertex of its first
    non-singleton cell, individualised ahead of the rest of it, unless the
    vertex is a twin of an explored sibling.  The least leaf certificate
    wins, and a leaf equal to the incumbent gives an automorphism; the twin
    transpositions, whose leaves the twin test skips, seed the generators.
    No branch is pruned by the orbits of the automorphisms found, as McKay
    & Piperno do: that took the same time to generate the families at
    n = 8 and 9 and saved about 4% at n = 10 (C4-free), too little for its
    code.  The certificate is not the min-lex form.
    """
    tau = _transposition_automorphisms(n, adj)
    gens = _twin_generators(n, tau)
    best_cert: tuple[int, ...] | None = None
    best_perm: list[int] = []

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
            if tau[v] & explored:
                continue
            explored |= low
            search(_refine(adj, cells[:i] + [low, target ^ low] + cells[i + 1:], [low]))

    full = (1 << n) - 1
    search(_refine(adj, [full], [full]) if root is None else root)
    if best_cert is None:
        raise RuntimeError(f"labelling search reached no leaf for n={n}")
    return best_cert, best_perm, gens


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


def _orbit(gens: list[list[int]], mask: int) -> set[int]:
    """The orbit of a vertex set (a bitset) under the group gens generate."""
    orbit = {mask}
    frontier = [mask]
    while frontier:
        current = frontier.pop()
        for gamma in gens:
            image = sum(1 << gamma[x] for x in structure._bits(current))
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def _generators(g: Graph) -> list[list[int]]:
    """Generators of g's automorphism group.  When every cell of g's
    equitable partition is one twin class, the group, which keeps each
    cell, is the product of the symmetric groups on the cells, so the twin
    transpositions generate it and no search runs."""
    full = (1 << g.n) - 1
    cells = _refine(g.adj, [full], [full])
    tau = _transposition_automorphisms(g.n, g.adj)
    if all(cell & ~tau[(cell & -cell).bit_length() - 1] == cell & -cell for cell in cells):
        return _twin_generators(g.n, tau)
    return _label_search(g.n, g.adj, cells)[2]


def _candidate_sets(g: Graph, c4_free: bool) -> list[int]:
    """The vertex sets S (bitsets) a new vertex v may be joined to: v must
    be of least degree in the child, so every x has deg(x) >= |S| - [x in
    S]; the child of an all-graph parent has at most half the vertex pairs
    as edges, and C4-free, no two vertices of S share a neighbour.  The
    sets are a union of orbits of g's automorphism group."""
    deg = [a.bit_count() for a in g.adj]
    top = min(deg, default=-1) + 1
    if not c4_free:
        top = min(top, (g.n + 1) * g.n // 4 - g.edge_count())
    sets = []
    for k in range(top + 1):
        forced = sum(1 << x for x, d in enumerate(deg) if d == k - 1)
        if forced.bit_count() > k:
            continue
        free = [x for x, d in enumerate(deg) if d >= k]
        for chosen in combinations(free, k - forced.bit_count()):
            s = forced | sum(1 << x for x in chosen)
            if not (c4_free and any(g.adj[x] & g.adj[y]
                                    for x, y in combinations(structure._bits(s), 2))):
                sets.append(s)
    return sets


def _twins_of(adj: tuple[int, ...], v: int, mask: int) -> bool:
    """Whether every vertex of mask is v or a twin of v."""
    return all(adj[x] & ~(1 << v) == adj[v] & ~(1 << x) for x in structure._bits(mask))


def _kept(adj: tuple[int, ...]) -> bool:
    """Whether the child, whose last vertex v is of least degree, is kept:
    v must lie in the orbit of the canonical deletion vertex.  Among the
    vertices of least degree, that vertex has in turn the greatest
    neighbour degrees sorted descending, the last cell of the child's
    equitable partition, and the last labelled position.  Ties left that
    are all twins of v are in its orbit, so only a tie past the cells on
    vertices that are not twins costs a search."""
    n = len(adj)
    v = n - 1
    deg = [a.bit_count() for a in adj]
    target = sorted((deg[y] for y in structure._bits(adj[v])), reverse=True)
    ties = 0
    for x, d in enumerate(deg):
        if d == deg[v]:
            key = sorted((deg[y] for y in structure._bits(adj[x])), reverse=True)
            if key > target:
                return False
            if key == target:
                ties |= 1 << x
    if _twins_of(adj, v, ties):
        return True
    full = (1 << n) - 1
    cells = _refine(adj, [full], [full])
    last = next(cell for cell in reversed(cells) if cell & ties)
    if not last >> v & 1:
        return False
    ties &= last
    if _twins_of(adj, v, ties):
        return True
    _, perm, gens = _label_search(n, adj, cells)
    best = max(structure._bits(ties), key=_inverse(perm).__getitem__)
    return 1 << v in _orbit(gens, 1 << best)


def _children(n: int, parents: Iterable[Graph], c4_free: bool) -> list[Graph]:
    """The classes of order n whose canonical parent, the class less its
    canonical deletion vertex, is among parents, classes of order n - 1.
    A parent is searched for its generators only when it has 2 candidate
    sets or more, and one set per orbit is taken.  An all-graph class with
    fewer edges than half the N vertex pairs brings its complement."""
    found: list[Graph] = []
    full = (1 << n) - 1
    for g in parents:
        m = g.edge_count()
        sets = _candidate_sets(g, c4_free)
        if len(sets) > 1:
            gens = _generators(g)
            seen: set[int] = set()
            reps = []
            for s in sets:
                if s not in seen:
                    reps.append(s)
                    seen |= _orbit(gens, s)
            sets = reps
        for s in sets:
            adj = tuple(a | (s >> x & 1) << (n - 1) for x, a in enumerate(g.adj)) + (s,)
            if _kept(adj):
                found.append(Graph(n, adj))
                if not c4_free and 4 * (m + s.bit_count()) < n * (n - 1):
                    found.append(Graph(n, tuple(full ^ 1 << x ^ a for x, a in enumerate(adj))))
    return found


def _family(n: int, c4_free: bool) -> tuple[Graph, ...]:
    """Every isomorphism class at order n, or every C4-free one, in (edge
    count, adjacency) order: the children of every class at order n - 1,
    generated once per process."""
    key = (n, c4_free)
    if key not in _CLASS_CACHE:
        below = _family(n - 1, c4_free) if n > 1 else (Graph(0, ()),)
        _CLASS_CACHE[key] = tuple(sorted(_children(n, below, c4_free),
                                         key=lambda g: (g.edge_count(), g.adj)))
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
