from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter

import pytest

from degpow import enumeration
from degpow.verify import THEOREMS
from degpow.enumeration import (
    ExtremalReport,
    SearchPredicate,
    canonical_form,
    canonical_graph,
    enumerate_graphs,
    extremal_ep,
)
from degpow.families import complete_bipartite, cycle_graph, friendship, split_graph, wheel
from degpow.graphs import Graph, add_edge, from_graph6, new_graph, permute, to_graph6
from degpow.structure import has_c4

from helpers import all_labeled_graphs, every_class

# distinct isomorphism classes of simple graphs, n = 1..8
CLASS_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346)

# Every (n, c4_free, even_cycle_free, edge cap) the verification suites
# enumerate -- all graphs for n = 1..8, theorem 1's C4-free classes with
# at most 3(n-1)/2 edges for n = 4..9, and the even-cycle-free classes for
# n = 4..8 -- mapped to (class count, sha256 of the concatenated sorted
# canonical forms).  The digests were taken from the level-by-level
# generator with per-level deduplication by canonical form, so they pin the
# class sets independently of the generator that produces them now.  The
# whole C4-free family at n = 9, which the one at n = 10 grows from, was
# pinned from the generator that grew each order from the empty graph.
PINNED_CLASS_SETS = {
    (1, False, False, 0): (1, "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a"),
    (2, False, False, 1): (2, "e14b77bb203317724ad98b20cf058c977a65f1fbb20c40b5b71b9f063f68c64a"),
    (3, False, False, 3): (4, "4baf3bbd7d9d9c85b869d826c8d834a5c0f4f20f80dd1e5743a3b195210fa833"),
    (4, False, False, 6): (11, "36aae959a2f5d52433edea3c64bf7dd30283d8441398217ad4577344c745680f"),
    (5, False, False, 10): (34, "859f46efecd46312016052c63d001b25967af7b67b1251143dbc795ec4ff43d4"),
    (6, False, False, 15): (156, "9a4165fc39443def0e1a304144703837e1c3805ed276020000b8fc295d110e57"),
    (7, False, False, 21): (1044, "f13b5d9342945face76d4008b29c7aa211b48bfd9e8501739d5f230a12e1a199"),
    (8, False, False, 28): (12346, "5c492e6c82ac0d0f121104418034e6d94949c955bfe574a48f4535821051b474"),
    (4, True, False, 4): (8, "803a3530333b6705e7a75dc2ce213c18e2daabbc62f47b3fe6007607eff8f451"),
    (5, True, False, 6): (18, "d54edae64f057892500b2815f9ed978a2abbb202b113ee453d30acdc5626275a"),
    (6, True, False, 7): (44, "94f6869afdfc5039eddd90fb47c9c1798721f28755c220d6cd1a6f4376daf69b"),
    (7, True, False, 9): (117, "2eb2cd36894c1d0a5237e6dceb0d25e3687e1bb505d68e45e712d9c0628684d5"),
    (8, True, False, 10): (346, "49a1c4f436602a5ba7aef3a96d0fd1c48a0365048ded7a0b64e979f9a3c4c330"),
    (9, True, False, 12): (1220, "b7d11c7f5180dc10377a07d92ae20a2d368bb6b2d12fd0c3e83b6099876b129b"),
    (9, True, False, 36): (1230, "12fb520b9b98454a6d1e110780ccb47232c2497d6ac1a5a3cf463893eca33d57"),
    (4, False, True, 6): (8, "803a3530333b6705e7a75dc2ce213c18e2daabbc62f47b3fe6007607eff8f451"),
    (5, False, True, 10): (18, "d54edae64f057892500b2815f9ed978a2abbb202b113ee453d30acdc5626275a"),
    (6, False, True, 15): (42, "1bbce2579ca205700e1cb5b2d27d17cce0498e30840ed25d2d8ac11246d06b7a"),
    (7, False, True, 21): (105, "6c252a7bb34e05267d6030b276b4c5c2522b50bdd9eab62343fed67f4973331f"),
    (8, False, True, 28): (273, "185f8a444a46215aa4495b8ca0bdaffc17ecd5a42d897530ff79be3096680b38"),
}


EVEN_CYCLE_FREE_KEYS = [key for key in PINNED_CLASS_SETS if key[2]]

# classes of graphs on n vertices with half of the n(n-1)/2 pairs as edges,
# for the n at which that is a whole number (OEIS A008406)
MIDDLE_LEVEL_COUNTS = {1: 1, 4: 3, 5: 6, 8: 1646}


@pytest.fixture
def searches(monkeypatch):
    """A cold class cache, and a counter of the labelling searches that
    generation runs."""
    counter = Counter()
    search = enumeration._label_search

    def counting(n, adj, root=None):
        counter["calls"] += 1
        return search(n, adj, root)

    monkeypatch.setattr(enumeration, "_label_search", counting)
    monkeypatch.setattr(enumeration, "_CLASS_CACHE", {})
    return counter


def triangle_bit_string(g):
    bits = []
    for col in range(1, g.n):
        for row in range(col):
            bits.append((g.adj[row] >> col) & 1)
    return tuple(bits)


def columns(g, order):
    """The column sequence of an ordering: column c holds the adjacency of
    order[c] to order[0..c-1], the first of them as the highest bit."""
    cols = []
    for c, v in enumerate(order):
        value = 0
        for u in order[:c]:
            value = (value << 1) | ((g.adj[u] >> v) & 1)
        cols.append(value)
    return cols


def check_against_brute_minimum(g):
    cols, perm = enumeration._canon_search(g.n, g.adj)
    assert cols == min(columns(g, order) for order in itertools.permutations(range(g.n)))
    assert sorted(perm) == list(range(g.n)) and columns(g, perm) == cols


def shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return permute(g, perm)


def forests_n7():
    """A seeded sample of 7-vertex forests, each with an isolated vertex and
    an edge, randomly labeled."""
    rng = random.Random(77)
    forests = []
    while len(forests) < 30:
        edges = [(rng.randrange(v), v) for v in range(1, 7) if rng.random() < 0.6]
        g = new_graph(7, edges)
        if edges and any(a == 0 for a in g.adj):
            forests.append(shuffled(g, rng))
    return forests


class TestCanonicalForm:
    def test_is_global_minimum_exhaustive(self):
        # n <= 4: against minimization over all permutations of the bit string
        for n in range(1, 5):
            for g in all_labeled_graphs(n):
                brute = min(
                    triangle_bit_string(permute(g, list(p)))
                    for p in itertools.permutations(range(n))
                )
                assert triangle_bit_string(canonical_graph(g)) == brute

    def test_is_global_minimum_sampled(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(5, 6)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = new_graph(n, [e for e in pairs if rng.random() < rng.random()])
            brute = min(
                triangle_bit_string(permute(g, list(p)))
                for p in itertools.permutations(range(n))
            )
            assert triangle_bit_string(canonical_graph(g)) == brute

    def test_search_is_global_minimum_every_class_n6(self):
        # every class at n <= 6, relabeled at random, against the minimum
        # over all n! orderings; the permutation must realise the minimum
        rng = random.Random(6)
        for n in range(1, 7):
            reps = []
            enumerate_graphs(n, visit=reps.append)
            for g in reps:
                check_against_brute_minimum(shuffled(g, rng))

    def test_search_is_global_minimum_forests_n7(self):
        # forests with isolated and pendant vertices, where a first-cell
        # vertex with no unassigned neighbour is branched on alone
        for g in forests_n7():
            check_against_brute_minimum(g)

    def test_twin_collapse_keeps_symmetric_searches_to_one_leaf(self):
        # every leaf after the first that equals the incumbent adds a
        # generator; these groups are generated by twin transpositions, so
        # the collapsed labelling search reaches one leaf and returns just those
        rng = random.Random(5)
        cases = [(new_graph(7, itertools.combinations(range(7), 2)), 6),
                 (complete_bipartite(3, 7), 5), (split_graph(7, 3), 5)]
        for g, transpositions in cases:
            _, _, gens = enumeration._label_search(g.n, g.adj)
            assert len(gens) == transpositions
            g = shuffled(g, rng)
            _, _, gens = enumeration._label_search(g.n, g.adj)
            assert len(gens) == transpositions

    def test_equal_iff_isomorphic_exhaustive(self):
        # invariance plus a counting argument: the number of distinct forms
        # over all labeled graphs equals the number of isomorphism classes,
        # so the form separates classes perfectly
        rng = random.Random(3)
        for n in range(1, 7):
            forms = set()
            for g in all_labeled_graphs(n):
                f = canonical_form(g)
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_form(permute(g, perm)) == f
                forms.add(f)
            assert len(forms) == CLASS_COUNTS[n - 1]

    def test_relabeled_c4(self):
        c4 = new_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        other = new_graph(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
        assert canonical_form(c4) == canonical_form(other)

    def test_k3_vs_p3(self):
        k3 = new_graph(3, [(0, 1), (1, 2), (0, 2)])
        p3 = new_graph(3, [(0, 1), (1, 2)])
        assert canonical_form(k3) != canonical_form(p3)

    def test_paw_all_relabelings(self):
        paw = new_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        forms = {
            canonical_form(permute(paw, list(p)))
            for p in itertools.permutations(range(4))
        }
        assert len(forms) == 1

    def test_canonical_graph_is_isomorphic_relabeling(self):
        g = friendship(7)
        cg = canonical_graph(g)
        assert sorted(a.bit_count() for a in cg.adj) == sorted(a.bit_count() for a in g.adj)
        assert canonical_form(cg) == canonical_form(g)

    def test_orders_zero_and_one(self):
        assert enumeration._canon_search(0, ()) == ([], [])
        assert enumeration._canon_search(1, (0,)) == ([0], [0])

    def test_size_limit(self):
        with pytest.raises(ValueError):
            canonical_form(new_graph(11, []))


def pair_orbits(n, perms):
    """Partition of the vertex pairs into orbits of the group perms generate."""
    parent = {pair: pair for pair in itertools.combinations(range(n), 2)}

    def find(pair):
        while parent[pair] != pair:
            pair = parent[pair]
        return pair

    for perm in perms:
        for a, b in parent:
            image = tuple(sorted((perm[a], perm[b])))
            parent[find(image)] = find((a, b))
    classes = {}
    for pair in parent:
        classes.setdefault(find(pair), set()).add(pair)
    return {frozenset(c) for c in classes.values()}


def brute_automorphisms(g):
    edges = list(g.edges())
    return [
        perm
        for perm in itertools.permutations(range(g.n))
        if all(g.has_edge(perm[u], perm[v]) for u, v in edges)
    ]


class TestAutomorphismGenerators:
    """The generators _label_search returns, against brute force."""

    def check(self, g):
        _, _, gens = enumeration._label_search(g.n, g.adj)
        for gamma in gens:
            assert sorted(gamma) == list(range(g.n))
            assert permute(g, gamma) == g
        assert pair_orbits(g.n, gens) == pair_orbits(g.n, brute_automorphisms(g))

    def test_exhaustive_small(self):
        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                self.check(g)

    def test_sampled_n6_n7(self):
        rng = random.Random(2024)
        named = [cycle_graph(6), cycle_graph(7), wheel(7), friendship(7),
                 complete_bipartite(3, 7), split_graph(7, 2)]
        samples = []
        for n in (6, 7):
            pairs = list(itertools.combinations(range(n), 2))
            for _ in range(25):
                density = rng.random()
                samples.append(new_graph(n, [e for e in pairs if rng.random() < density]))
        for g in named + samples:
            perm = list(range(g.n))
            rng.shuffle(perm)
            self.check(permute(g, perm))

    def test_forests_n7(self):
        for g in forests_n7():
            self.check(g)


def random_graph(n, rng):
    density = rng.random()
    return new_graph(n, [e for e in itertools.combinations(range(n), 2)
                         if rng.random() < density])


class TestLabelSearch:
    """The refinement labelling that generation runs, against canonical_form
    and brute force."""

    def test_certificate_invariant_under_relabelling(self):
        # the certificate is the adjacency of g relabelled by perm, and
        # every relabelling of g gives the same one
        rng = random.Random(17)
        graphs = [random_graph(n, rng) for n in (7, 8, 9, 10) for _ in range(40)]
        graphs += [cycle_graph(9), wheel(9), friendship(9), complete_bipartite(4, 9),
                   split_graph(9, 3)] + forests_n7()
        for g in graphs:
            cert, perm, _ = enumeration._label_search(g.n, g.adj)
            assert sorted(perm) == list(range(g.n))
            assert cert == permute(g, enumeration._inverse(perm)).adj
            for _ in range(3):
                h = shuffled(g, rng)
                assert enumeration._label_search(h.n, h.adj)[0] == cert

    def test_same_classes_as_canonical_form(self):
        # every labelled graph at n <= 5 and a seeded sample at n = 6: equal
        # certificates iff equal canonical forms
        rng = random.Random(61)
        for n in range(1, 7):
            graphs = all_labeled_graphs(n) if n <= 5 else (random_graph(6, rng)
                                                           for _ in range(1500))
            form_of, cert_of = {}, {}
            for g in graphs:
                cert, form = enumeration._label_search(n, g.adj)[0], canonical_form(g)
                assert form_of.setdefault(cert, form) == form
                assert cert_of.setdefault(form, cert) == cert
            if n <= 5:
                assert len(form_of) == CLASS_COUNTS[n - 1]

    def test_generators_give_the_pair_orbits(self):
        # every labelled graph at n <= 5, and a seeded sample at n = 6
        rng = random.Random(66)
        graphs = [g for n in range(1, 6) for g in all_labeled_graphs(n)]
        graphs += [shuffled(g, rng) for g in (cycle_graph(6), wheel(6), friendship(5),
                                              complete_bipartite(3, 6), split_graph(6, 2))]
        graphs += [random_graph(6, rng) for _ in range(150)]
        for g in graphs:
            _, _, gens = enumeration._label_search(g.n, g.adj)
            for gamma in gens:
                assert permute(g, gamma) == g
            assert pair_orbits(g.n, gens) == pair_orbits(g.n, brute_automorphisms(g))


class TestEnumeration:
    def test_unfiltered_counts_small(self):
        for n in range(1, 7):
            assert enumerate_graphs(n) == CLASS_COUNTS[n - 1]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_graphs(0)
        with pytest.raises(ValueError):
            enumerate_graphs(11)

    def test_visit_representatives_are_canonical_and_distinct(self):
        seen = []
        enumerate_graphs(5, visit=seen.append)
        forms = [canonical_form(g) for g in seen]
        assert len(set(forms)) == len(seen) == 34
        assert all(canonical_graph(g) == g for g in seen)

    def test_deterministic_order(self):
        runs = []
        for _ in range(2):
            acc = []
            enumerate_graphs(6, SearchPredicate(c4_free=True), acc.append)
            runs.append([to_graph6(g) for g in acc])
        assert runs[0] == runs[1]

    def test_hereditary_pruning_soundness(self):
        # pruned c4-free enumeration visits exactly the c4-free subset
        for n in range(1, 7):
            pruned = []
            enumerate_graphs(n, SearchPredicate(c4_free=True), pruned.append)
            unfiltered = []
            enumerate_graphs(n, visit=unfiltered.append)
            subset = [g for g in unfiltered if not has_c4(g)]
            assert {canonical_form(g) for g in pruned} == {
                canonical_form(g) for g in subset
            }

    def test_max_edges_filter(self):
        count = enumerate_graphs(5, SearchPredicate(max_edges=4))
        unfiltered = []
        enumerate_graphs(5, visit=unfiltered.append)
        assert count == sum(1 for g in unfiltered if g.edge_count() <= 4)

    def test_friendship_in_theorem1_class(self):
        pred = SearchPredicate(c4_free=True, max_edges=6, min_degree=1)
        forms = []
        enumerate_graphs(5, pred, forms.append)
        assert canonical_form(friendship(5)) in {canonical_form(g) for g in forms}


class TestClassSets:
    @pytest.mark.parametrize("key", list(PINNED_CLASS_SETS), ids=str)
    def test_pinned_class_set(self, key):
        self.check_pinned(key)

    @pytest.mark.parametrize("route", ["own", "filtered"])
    @pytest.mark.parametrize("key", EVEN_CYCLE_FREE_KEYS, ids=str)
    def test_pinned_class_set_by_route(self, key, route, searches):
        # own: a cold cache, so the request generates the whole C4-free
        # family, from the orders below it; filtered: that family is cached
        # already and no search runs.  Either way the class is read out of
        # the C4-free family, and only the C4-free families at n and below
        # are cached, never a filtered tuple.
        n, c4_free, even_cycle_free, cap = key
        if route == "filtered":
            enumeration._CLASS_CACHE[(n, True)] = enumeration._generate(n, True)
        calls = searches["calls"]
        pred = SearchPredicate(c4_free=c4_free, even_cycle_free=even_cycle_free, max_edges=cap)
        assert enumerate_graphs(n, pred) == PINNED_CLASS_SETS[key][0]
        assert (searches["calls"] == calls) == (route == "filtered")
        assert sorted(enumeration._CLASS_CACHE) == [(k, True) for k in range(1, n + 1)]
        self.check_pinned(key)

    @staticmethod
    def check_pinned(key):
        n, c4_free, even_cycle_free, cap = key
        if c4_free or even_cycle_free or cap < n * (n - 1) // 2:
            pred = SearchPredicate(c4_free=c4_free, even_cycle_free=even_cycle_free, max_edges=cap)
            reps = []
            enumerate_graphs(n, pred, reps.append)
        else:
            # every graph: enumerate_graphs' representatives, built once per
            # session
            reps = list(every_class(n))
        # each representative's form and canonical graph from one search
        forms, canon = zip(*map(enumeration._canon_pair, reps))
        count, digest = PINNED_CLASS_SETS[key]
        if not (c4_free or even_cycle_free):
            assert count == CLASS_COUNTS[n - 1]
        # one canonical representative per class, in (edge count, form) order
        assert len(set(forms)) == len(reps) == count
        assert list(canon) == reps
        order = [(g.edge_count(), f) for g, f in zip(reps, forms)]
        assert order == sorted(order)
        assert hashlib.sha256(b"".join(sorted(forms))).hexdigest() == digest


    def test_canonical_searches_per_class(self, searches):
        count = enumerate_graphs(7)
        assert count == CLASS_COUNTS[6]
        assert searches["calls"] <= 1.5 * count

    def test_even_cycle_free_searches_per_class(self, searches):
        # the searches generate the whole C4-free family, 351 classes, which
        # the even-cycle-free classes are read out of
        count = enumerate_graphs(8, THEOREMS["c1"].predicate(8, None))
        assert count == PINNED_CLASS_SETS[(8, False, True, 28)][0]
        assert len(enumeration._CLASS_CACHE[(8, True)]) == 351
        assert searches["calls"] <= 1.5 * 351

    def test_c1_reads_t1_generation(self, searches):
        enumerate_graphs(7, THEOREMS["t1"].predicate(7, None))
        generated = searches["calls"]
        assert generated > 0
        count = enumerate_graphs(7, THEOREMS["c1"].predicate(7, None))
        assert count == PINNED_CLASS_SETS[(7, False, True, 21)][0]
        assert searches["calls"] == generated

    @pytest.mark.parametrize("n, c4_free", [(n, False) for n in range(2, 9)]
                             + [(n, True) for n in range(2, 10)], ids=str)
    def test_isolated_vertex_classes_are_the_order_below(self, n, c4_free):
        # the classes at n with an isolated vertex are the classes at n - 1
        # plus a vertex, each once
        below = Counter(canonical_form(Graph(n, g.adj + (0,)))
                        for g in enumeration._family(n - 1, c4_free))
        here = Counter(canonical_form(g) for g in enumeration._family(n, c4_free) if 0 in g.adj)
        assert set(below.values()) == {1}
        assert here == below

    @pytest.mark.parametrize("n", range(1, 9))
    def test_complements_mirror_the_family(self, n):
        # the family is closed under complement, each class's complement is
        # another class once, and the middle edge count, which complement
        # maps to itself, holds its own classes once each
        reps = every_class(n)  # the min-lex forms of _family(n, False)
        complements = Counter(
            canonical_graph(new_graph(n, [pair for pair in itertools.combinations(range(n), 2)
                                          if not g.has_edge(*pair)]))
            for g in reps)
        assert len(set(reps)) == len(reps) == CLASS_COUNTS[n - 1]
        assert complements == Counter(reps)
        full = n * (n - 1) // 2
        middle = [g for g in reps if 2 * g.edge_count() == full]
        assert len(middle) == MIDDLE_LEVEL_COUNTS.get(n, 0)


def degree_rule_drops(g, u, v):
    """The parent-side deletion rule on the non-edge uv, from the parent's
    degrees: some neighbour of u has degree above deg(v) + 1, or some
    neighbour of v above deg(u) + 1."""
    deg = [g.degree(x) for x in range(g.n)]
    top = [max((deg[y] for y in range(g.n) if g.has_edge(x, y)), default=0)
           for x in range(g.n)]
    return top[u] > deg[v] + 1 or top[v] > deg[u] + 1


class TestAugmentation:
    """The degree rule that drops non-edge orbits before their child is
    built, and the work generation does with it."""

    @pytest.mark.parametrize("n, c4_free", [(n, False) for n in range(1, 8)]
                             + [(n, True) for n in range(1, 9)])
    def test_degree_rule_drops_only_rejected_orbits(self, n, c4_free):
        # every class of the family as a parent: each non-edge the degree
        # rule drops has a child the deletion test rejects, and the pairs
        # returned are the least of every non-edge orbit that covers the
        # parent's isolated vertices, passes the rule and, C4-free, makes no C4
        for g in enumeration._family(n, c4_free):
            _, _, gens = enumeration._label_search(g.n, g.adj)
            non_edges = {pair for pair in itertools.combinations(range(n), 2)
                         if not g.has_edge(*pair)}
            dropped = {pair for pair in non_edges if degree_rule_drops(g, *pair)}
            for u, v in dropped:
                assert enumeration._deletion_ties(add_edge(g, u, v).adj, u, v) is None
            dropped |= {(u, v) for u, v in non_edges
                        if any(g.degree(x) == 0 for x in range(n) if x not in (u, v))
                        or c4_free and has_c4(add_edge(g, u, v))}
            orbits = [orbit for orbit in pair_orbits(n, gens) if orbit <= non_edges]
            assert all(orbit <= dropped or not orbit & dropped for orbit in orbits)
            kept = sorted(min(orbit) for orbit in orbits if not orbit & dropped)
            assert enumeration._orbit_reps(enumeration._non_edges(g, c4_free), gens) == kept

    @pytest.mark.parametrize("cached, orders, c4_free, deletion_tests, labellings", [
        (6, (7,), False, 625, 228), (7, (8,), False, 11116, 3021), (7, (8,), True, 431, 151),
        (0, tuple(range(4, 9)), True, 604, 239),
    ], ids=["n=7 all", "n=8 all", "n=8 C4-free", "n=4..8 C4-free"])
    def test_work_counts_pinned(self, monkeypatch, cached, orders, c4_free, deletion_tests,
                                labellings):
        # deterministic counts of generating the orders in turn, from a cache
        # that holds the orders up to cached (none for 0), so the last row
        # generates orders 1 to 3 too.  The all-graph tree is expanded only
        # up to its middle edge count, and a class is searched only for its
        # generators, when it has 2 candidate non-edges or more, or for a tie
        # on its deletion edge that the cells of its equitable partition
        # leave open
        monkeypatch.setattr(enumeration, "_CLASS_CACHE", {})
        if cached:
            enumeration._family(cached, c4_free)
        counter = Counter()
        for name in ("_deletion_ties", "_label_search"):
            original = getattr(enumeration, name)

            def counting(*args, name=name, original=original):
                counter[name] += 1
                return original(*args)

            monkeypatch.setattr(enumeration, name, counting)
        for n in orders:
            enumeration._family(n, c4_free)
        assert counter == {"_deletion_ties": deletion_tests, "_label_search": labellings}


class TestNetworkxOracle:
    def test_atlas_matches_enumeration(self):
        nx = pytest.importorskip("networkx")
        atlas = {}
        for h in nx.graph_atlas_g():
            atlas.setdefault(h.number_of_nodes(), []).append(h)
        for n in range(1, 8):
            atlas_forms = [canonical_form(new_graph(n, h.edges())) for h in atlas[n]]
            reps = []
            enumerate_graphs(n, visit=reps.append)
            assert len(set(atlas_forms)) == len(atlas_forms)
            assert set(atlas_forms) == {canonical_form(g) for g in reps}
            assert Counter(h.number_of_edges() for h in atlas[n]) == Counter(
                g.edge_count() for g in reps
            )


class TestOrderAndCapChecks:
    def test_negative_edge_cap_rejected(self):
        with pytest.raises(ValueError):
            enumerate_graphs(4, SearchPredicate(max_edges=-1))

    @pytest.mark.parametrize("field, value, least", [
        ("max_edges", -1, 0), ("min_degree", -3, 0), ("minimally_connected", 0, 1),
        ("minimally_edge_connected", 0, 1), ("degenerate", 0, 1), ("degenerate", -2, 1),
    ])
    def test_bounds_refused_before_generation(self, monkeypatch, field, value, least):
        # a bad bound raises when the predicate is built, not after generation
        def no_generation(*args):
            raise AssertionError("generation started")

        monkeypatch.setattr(enumeration, "_family", no_generation)
        with pytest.raises(ValueError, match=f"^{field} must be >= {least}, got {value}$"):
            enumerate_graphs(8, SearchPredicate(**{field: value}))

    @pytest.mark.parametrize("p", [0, -1])
    def test_extremal_p_below_one_refused_before_generation(self, monkeypatch, p):
        def no_generation(*args):
            raise AssertionError("generation started")

        monkeypatch.setattr(enumeration, "_family", no_generation)
        with pytest.raises(ValueError, match="^p must be >= 1$"):
            extremal_ep(5, p)

    def test_least_bounds_admitted(self):
        pred = SearchPredicate(max_edges=0, min_degree=0, minimally_connected=1,
                               minimally_edge_connected=1, degenerate=1)
        assert pred.describe() == ("max_edges=0,min_degree=0,minimally_1_connected,"
                                   "minimally_1_edge_connected,1_degenerate")

    def test_n10_needs_a_cycle_prune(self, monkeypatch):
        def no_generation(*args):
            raise AssertionError("generation started")

        monkeypatch.setattr(enumeration, "_family", no_generation)
        for pred in (SearchPredicate(), SearchPredicate(max_edges=3),
                     SearchPredicate(minimally_connected=2)):
            with pytest.raises(ValueError, match="n=10"):
                enumerate_graphs(10, pred)

    def test_n9_all_graphs_admitted(self, monkeypatch):
        # no opt-in: n=9 over all graphs reaches generation, nothing beyond
        # the hard limits raises first
        requested = []

        def no_classes(n, c4_free):
            requested.append(n)
            return ()

        monkeypatch.setattr(enumeration, "_family", no_classes)
        assert enumerate_graphs(9, SearchPredicate()) == 0
        assert requested == [9]
        for n, pred in ((0, SearchPredicate()), (11, SearchPredicate(c4_free=True)),
                        (10, SearchPredicate())):
            with pytest.raises(ValueError):
                enumerate_graphs(n, pred)
        assert requested == [9]


class TestExtremalSearch:
    def test_theorem1_n5(self):
        pred = SearchPredicate(c4_free=True, max_edges=6, min_degree=1)
        rep = extremal_ep(5, 2, pred)
        assert rep.max_value == 32
        assert rep.witnesses == (to_graph6(canonical_graph(friendship(5))).decode(),)

    def test_theorem1_n4(self):
        pred = SearchPredicate(c4_free=True, max_edges=4, min_degree=1)
        rep = extremal_ep(4, 2, pred)
        assert rep.max_value == 18
        assert rep.witnesses == (to_graph6(canonical_graph(friendship(4))).decode(),)

    def test_minimally_2_connected_n5(self):
        rep = extremal_ep(5, 2, SearchPredicate(minimally_connected=2))
        assert rep.max_value == 30
        assert rep.witnesses == (
            to_graph6(canonical_graph(complete_bipartite(2, 5))).decode(),
        )

    def test_empty_class(self):
        rep = extremal_ep(2, 2, SearchPredicate(minimally_connected=2))
        assert rep.max_value is None and rep.witnesses == ()

    def test_monotone_in_predicate(self):
        strict = extremal_ep(6, 2, SearchPredicate(c4_free=True, max_edges=7))
        weaker = extremal_ep(6, 2, SearchPredicate(c4_free=True))
        assert weaker.max_value >= strict.max_value

    def test_witnesses_decode_and_attain_max(self):
        rep = extremal_ep(5, 3, SearchPredicate(max_edges=5))
        from degpow.graphs import ep as ep_fn

        for g6 in rep.witnesses:
            g = from_graph6(g6)
            assert ep_fn(g, 3) == rep.max_value

    def test_graph6_order_is_canonical_form_order(self):
        # witnesses are sorted by graph6; for canonical representatives of
        # one order that is the canonical-form order, as the classes of every
        # graph class at n <= 7 are a subset of these
        for n in range(1, 8):
            reps = []
            enumerate_graphs(n, visit=reps.append)
            assert sorted(reps, key=to_graph6) == sorted(reps, key=canonical_form)
