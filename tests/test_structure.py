from __future__ import annotations

import random
from collections import Counter

import pytest

from degpow.families import complete_bipartite, cycle_graph, friendship, split_graph, wheel
from degpow.graphs import new_graph
from degpow.structure import (
    degeneracy,
    edge_connectivity,
    has_c4,
    has_even_cycle,
    is_k_degenerate,
    is_maximal_k_degenerate,
    is_minimally_t_connected,
    is_minimally_t_edge_connected,
    vertex_connectivity,
)

from degpow import structure
from degpow.enumeration import enumerate_graphs
from degpow.graphs import from_graph6, induced_subgraph, permute

from helpers import (
    all_labeled_graphs,
    cycle_has_chord,
    every_class,
    oracle_cycles,
    oracle_degeneracy,
    oracle_edge_connectivity,
    oracle_has_c4,
    oracle_has_even_cycle,
    oracle_is_minimal,
    oracle_vertex_connectivity,
    remove_edge,
)

K4 = new_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
K5 = new_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
P3 = new_graph(3, [(0, 1), (1, 2)])


class TestC4:
    def test_c4_itself(self):
        assert has_c4(cycle_graph(4))

    def test_friendship_is_c4_free(self):
        assert not has_c4(friendship(7))

    def test_k4(self):
        assert has_c4(K4)

    def test_against_subgraph_search_oracle(self):
        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                assert has_c4(g) == oracle_has_c4(g)


class TestEvenCycle:
    def test_cycle_parity(self):
        assert has_even_cycle(cycle_graph(6))
        assert not has_even_cycle(cycle_graph(5))

    def test_friendship(self):
        assert not has_even_cycle(friendship(9))

    def test_k4(self):
        assert has_even_cycle(K4)

    def test_against_dfs_oracle_small(self):
        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                assert has_even_cycle(g) == oracle_has_even_cycle(g)

    def test_against_dfs_oracle_sparse(self):
        # relabeled cacti of odd and even cycles and pendant edges in
        # several components, plus 0-2 random extra edges: odd cacti, a
        # lone even cycle, and thetas from a chord or a bridge between
        # cycles all occur
        rng = random.Random(0xC1)
        found = {True: 0, False: 0}
        for _ in range(500):
            n = rng.randint(8, 24)
            edges = set()
            v = 0
            while v < n:
                comp, size = [v], rng.randint(1, 9)
                v += 1
                while v < n and len(comp) < size:
                    # 1 new vertex: a pendant edge; k > 1: a cycle of k+1
                    k = rng.choice((1, 2, 3, 4, 4, 6))
                    path = [rng.choice(comp)] + list(range(v, min(n, v + k)))
                    v = path[-1] + 1
                    comp += path[1:]
                    steps = list(zip(path, path[1:]))
                    if len(path) >= 3:
                        steps.append((path[-1], path[0]))
                    edges.update(steps)
            for _ in range(rng.randint(0, 2)):
                edges.add(tuple(rng.sample(range(n), 2)))
            perm = list(range(n))
            rng.shuffle(perm)
            g = new_graph(n, {tuple(sorted((perm[a], perm[b]))) for a, b in edges})
            expected = oracle_has_even_cycle(g)
            assert has_even_cycle(g) == expected
            found[expected] += 1
        assert min(found.values()) >= 100, found


class TestConnectivity:
    def test_examples(self):
        assert vertex_connectivity(complete_bipartite(3, 7)) == 3
        assert vertex_connectivity(wheel(6)) == 3
        assert vertex_connectivity(cycle_graph(5)) == 2

    def test_complete_convention(self):
        assert vertex_connectivity(K5) == 4
        assert vertex_connectivity(new_graph(1, [])) == 0

    def test_disconnected(self):
        assert vertex_connectivity(new_graph(4, [(0, 1), (2, 3)])) == 0

    def test_edge_connectivity_examples(self):
        assert edge_connectivity(friendship(5)) == 2
        assert edge_connectivity(P3) == 1
        assert edge_connectivity(K4) == 3

    def test_edge_connectivity_needs_two_vertices(self):
        with pytest.raises(ValueError):
            edge_connectivity(new_graph(1, []))

    def test_only_cut_contains_the_least_degree_vertex(self):
        # vertex 0, the one vertex of least degree (4), joins two K6s at two
        # vertices each; {0} is the only cut of size 1, and only a pair of
        # 0's neighbours is separated by it
        sides = (range(1, 7), range(7, 13))
        edges = [(0, 1), (0, 2), (0, 7), (0, 8)]
        edges += [(u, v) for side in sides for u in side for v in side if u < v]
        g = new_graph(13, edges)
        assert oracle_vertex_connectivity(g) == 1
        rng = random.Random(5)
        for _ in range(5):
            perm = list(range(13))
            rng.shuffle(perm)
            h = permute(g, perm)
            assert vertex_connectivity(h) == 1
            assert not structure._has_vertex_connectivity(h, 2)

    def test_vertex_connectivity_against_cut_oracle(self):
        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                assert vertex_connectivity(g) == oracle_vertex_connectivity(g)

    def test_edge_connectivity_against_cut_oracle(self):
        for n in range(2, 6):
            for g in all_labeled_graphs(n):
                assert edge_connectivity(g) == oracle_edge_connectivity(g)


class TestMinimality:
    def test_examples_vertex(self):
        assert is_minimally_t_connected(complete_bipartite(2, 5), 2)
        assert is_minimally_t_connected(wheel(6), 3)
        assert not is_minimally_t_connected(K4, 2)  # K4 - e stays 2-connected

    def test_examples_edge(self):
        assert is_minimally_t_edge_connected(cycle_graph(7), 2)
        assert is_minimally_t_edge_connected(friendship(5), 2)
        assert is_minimally_t_edge_connected(complete_bipartite(2, 6), 2)

    def test_trees_are_minimally_1_connected(self):
        assert is_minimally_t_connected(P3, 1)
        assert is_minimally_t_edge_connected(P3, 1)
        assert not is_minimally_t_connected(K4, 1)

    def test_t_validation(self):
        with pytest.raises(ValueError):
            is_minimally_t_connected(K4, 0)

    def test_against_definition_exhaustive(self):
        # the per-edge check uses only the deleted edge's endpoint pair; the
        # direct definition recomputes full connectivity per deletion
        for n in range(2, 6):
            for g in all_labeled_graphs(n):
                for t in (1, 2, 3):
                    assert is_minimally_t_connected(g, t) == oracle_is_minimal(
                        vertex_connectivity, g, t
                    )
                    assert is_minimally_t_edge_connected(g, t) == oracle_is_minimal(
                        edge_connectivity, g, t
                    )


VERTEX = (is_minimally_t_connected, structure._flows_minimally_t_connected,
          structure._has_vertex_connectivity)
EDGE = (is_minimally_t_edge_connected, structure._flows_minimally_t_edge_connected,
        structure._has_edge_connectivity)
# the minimality leaves the theorem checks use, with t
LEAVES = ((VERTEX, 1), (VERTEX, 2), (VERTEX, 3), (EDGE, 2))

# minimally 2-edge-connected on 9 vertices, although their vertices of
# degree > 2 do not induce a forest (three degree-4 vertices of H@LA[AJ
# form a triangle)
EDGE_FIXTURES = (b"H@LA[AJ", b"H?CeErc")


def near_minimal_graph(rng, n, threshold, t, skip):
    """G(n, p); if it passes threshold(g, t), each edge in random order is
    then deleted when the graph still passes without it, unless a coin of
    probability skip keeps the edge.  skip = 0 gives a minimal graph."""
    p = rng.uniform(0.3, 0.7)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    g = new_graph(n, edges)
    if not threshold(g, t):
        return g
    rng.shuffle(edges)
    for u, v in edges:
        if rng.random() >= skip:
            h = remove_edge(g, u, v)
            if threshold(h, t):
                g = h
    return g


class TestMinimalityPrefilters:
    """The public minimality predicates against the flow definitions they
    short-cut: the Halin/Mader prefilters, and the cycle-space labels for
    t = 2 edge connectivity."""

    def test_agree_with_flows_on_every_class(self):
        for n in range(1, 9):
            classes = every_class(n)
            for (public, flows, _), t in LEAVES:
                assert [public(g, t) for g in classes] == [flows(g, t) for g in classes], (n, t)

    def test_agree_with_flows_on_random_graphs(self):
        rng = random.Random(0x11)
        for (public, flows, threshold), t in LEAVES:
            found = {True: 0, False: 0}
            for _ in range(60):
                n = rng.choice((9, 10))
                g = near_minimal_graph(rng, n, threshold, t, rng.choice((0, 0, 0.1, 0.3)))
                perm = list(range(n))
                rng.shuffle(perm)
                g = permute(g, perm)
                expected = flows(g, t)
                assert public(g, t) == expected, (t, g.adj)
                found[expected] += 1
            assert min(found.values()) >= 15, (t, found)

    def test_forest_condition_against_cycle_oracle(self):
        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                for t in range(4):
                    high = [v for v in range(n) if g.degree(v) > t]
                    forest = not high or not oracle_cycles(induced_subgraph(g, high))
                    assert structure._high_degree_forest(g, t) == forest

    def test_classes_that_reach_the_flows(self, monkeypatch):
        # only classes with minimum degree t and a forest on the vertices of
        # degree > t reach the vertex flows; the t = 2 edge check runs none
        reached = Counter()
        flows = structure._flows_minimally_t_connected

        def counted(g, t):
            reached[g.n, t] += 1
            return flows(g, t)

        def no_flow(g, t):
            pytest.fail("the t = 2 edge check ran a flow")

        monkeypatch.setattr(structure, "_flows_minimally_t_connected", counted)
        monkeypatch.setattr(structure, "_flows_minimally_t_edge_connected", no_flow)
        for n in (7, 8):
            for g in every_class(n):
                for t in (2, 3):
                    is_minimally_t_connected(g, t)
                is_minimally_t_edge_connected(g, 2)
        assert reached == {(7, 2): 41, (7, 3): 23, (8, 2): 145, (8, 3): 158}

    @pytest.mark.parametrize("g6", EDGE_FIXTURES)
    def test_edge_fixtures_without_the_forest(self, g6):
        g = from_graph6(g6)
        assert g.n == 9
        assert is_minimally_t_edge_connected(g, 2)
        assert structure._flows_minimally_t_edge_connected(g, 2)
        assert oracle_is_minimal(oracle_edge_connectivity, g, 2)
        assert not structure._high_degree_forest(g, 2)


class TestDegeneracy:
    def test_trees(self):
        assert degeneracy(P3) == 1
        assert degeneracy(new_graph(2, [(0, 1)])) == 1

    def test_split_graph(self):
        assert degeneracy(split_graph(7, 3)) == 3

    def test_k5(self):
        assert degeneracy(K5) == 4

    def test_k_degenerate(self):
        assert is_k_degenerate(cycle_graph(5), 2)
        assert not is_k_degenerate(K5, 3)
        assert is_k_degenerate(split_graph(8, 3), 3)

    def test_maximal(self):
        assert is_maximal_k_degenerate(split_graph(6, 2), 2)  # 9 = 2*6 - 3
        assert not is_maximal_k_degenerate(cycle_graph(5), 2)
        assert is_maximal_k_degenerate(K4, 3)

    def test_maximal_needs_enough_vertices(self):
        with pytest.raises(ValueError):
            is_maximal_k_degenerate(K4, 4)

    def test_against_induced_subgraph_oracle(self):
        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                d = oracle_degeneracy(g)
                assert degeneracy(g) == d
                for k in range(1, 5):
                    assert is_k_degenerate(g, k) == (d <= k)


class TestCycles:
    """The test-side cycle oracle and chord test that the acceptance
    criteria use."""

    def test_counts(self):
        assert len(oracle_cycles(cycle_graph(5))) == 1
        assert len(oracle_cycles(K4)) == 7  # 4 triangles + 3 squares
        assert len(oracle_cycles(P3)) == 0

    def test_each_cycle_once(self):
        cycles = oracle_cycles(wheel(6))
        edge_sets = {
            frozenset(frozenset(e) for e in zip(c, c[1:] + c[:1])) for c in cycles
        }
        assert len(cycles) == len(edge_sets)

    def test_chords(self):
        g = new_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])  # C4 + chord
        square = next(c for c in oracle_cycles(g) if len(c) == 4)
        assert cycle_has_chord(g, square)
        assert not cycle_has_chord(cycle_graph(5), tuple(range(5)))


def oracle_sample():
    """Every class for n = 2..6, and 80 seeded n=7 classes, randomly relabeled."""
    graphs = []
    for n in range(2, 7):
        enumerate_graphs(n, visit=graphs.append)
    at7 = []
    enumerate_graphs(7, visit=at7.append)
    rng = random.Random(17)
    for g in rng.sample(at7, 80):
        perm = list(range(7))
        rng.shuffle(perm)
        graphs.append(permute(g, perm))
    return graphs


class TestNetworkxOracle:
    def test_connectivity_and_degeneracy(self):
        nx = pytest.importorskip("networkx")
        for g in oracle_sample():
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            kappa, lam = nx.node_connectivity(h), nx.edge_connectivity(h)
            assert vertex_connectivity(g) == kappa
            assert edge_connectivity(g) == lam
            core = max(nx.core_number(h).values())
            assert degeneracy(g) == core
            for k in range(1, 5):
                assert is_k_degenerate(g, k) == (core <= k)
            # the threshold tests behind the minimality checks, including
            # their min-degree shortcut
            for t in range(1, 5):
                assert structure._has_vertex_connectivity(g, t) == (kappa >= t)
                assert structure._has_edge_connectivity(g, t) == (lam >= t)
