from __future__ import annotations

import random

import pytest

from degpow.families import complete_bipartite, cycle_graph, friendship, split_graph, wheel
from degpow.graphs import new_graph
from degpow.structure import (
    all_cycles,
    cycle_has_chord,
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
from degpow.graphs import permute, remove_edge

from helpers import (
    all_labeled_graphs,
    oracle_cycles,
    oracle_degeneracy,
    oracle_edge_connectivity,
    oracle_has_c4,
    oracle_has_even_cycle,
    oracle_vertex_connectivity,
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
                    direct = vertex_connectivity(g) >= t and all(
                        vertex_connectivity(remove_edge(g, u, v)) < t
                        for u, v in g.edges()
                    )
                    assert is_minimally_t_connected(g, t) == direct
                    direct_e = edge_connectivity(g) >= t and all(
                        edge_connectivity(remove_edge(g, u, v)) < t
                        for u, v in g.edges()
                    )
                    assert is_minimally_t_edge_connected(g, t) == direct_e


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
    def test_counts(self):
        assert len(list(all_cycles(cycle_graph(5)))) == 1
        assert len(list(all_cycles(K4))) == 7  # 4 triangles + 3 squares
        assert len(list(all_cycles(P3))) == 0

    def test_each_cycle_once(self):
        cycles = list(all_cycles(wheel(6)))
        edge_sets = {
            frozenset(frozenset(e) for e in zip(c, c[1:] + c[:1])) for c in cycles
        }
        assert len(cycles) == len(edge_sets)

    def test_chords(self):
        g = new_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])  # C4 + chord
        square = next(c for c in all_cycles(g) if len(c) == 4)
        assert cycle_has_chord(g, square)
        assert not cycle_has_chord(cycle_graph(5), tuple(range(5)))

    def test_against_path_dfs_oracle(self):
        def edge_sets(cycles):
            return {
                frozenset(frozenset(e) for e in zip(c, c[1:] + c[:1])) for c in cycles
            }

        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                ours = list(all_cycles(g))
                ref = oracle_cycles(g)
                assert len(ours) == len(ref)
                assert edge_sets(ours) == edge_sets(ref)


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
