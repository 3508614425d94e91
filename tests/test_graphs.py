from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degpow.enumeration import enumerate_graphs
from degpow.families import complete_bipartite, friendship, wheel
from degpow.graphs import (
    Graph,
    add_edge,
    degree_sequence,
    ep,
    from_graph6,
    induced_subgraph,
    new_graph,
    permute,
    to_graph6,
)

from helpers import remove_edge

K3 = new_graph(3, [(0, 1), (1, 2), (0, 2)])
K4 = new_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def random_graph(rng: random.Random, n: int, density: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    return new_graph(n, edges)


@st.composite
def graphs_strategy(draw, max_n: int = 8):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return new_graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


class TestConstruction:
    def test_triangle(self):
        g = new_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.edge_count() == 3
        assert degree_sequence(g) == (2, 2, 2)

    def test_empty_graph(self):
        assert degree_sequence(new_graph(4, [])) == (0, 0, 0, 0)

    def test_friendship_edge_count(self):
        assert friendship(5).edge_count() == 6  # floor(3*4/2)

    def test_duplicate_edges_collapse(self):
        g = new_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1

    @pytest.mark.parametrize("n", [0, -1, 65])
    def test_bad_order(self, n):
        with pytest.raises(ValueError):
            new_graph(n, [])

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            new_graph(3, [(1, 1)])

    def test_out_of_range_endpoint(self):
        with pytest.raises(ValueError):
            new_graph(3, [(0, 3)])

    def test_add_remove_edge(self):
        g = new_graph(3, [(0, 1)])
        g2 = add_edge(g, 1, 2)
        assert g2.edge_count() == 2 and g.edge_count() == 1
        assert remove_edge(g2, 1, 2) == g
        with pytest.raises(ValueError):
            add_edge(g, 0, 1)
        with pytest.raises(ValueError):
            remove_edge(g, 1, 2)


class TestDegreeSequence:
    def test_friendship_odd(self):
        assert degree_sequence(friendship(5)) == (4, 2, 2, 2, 2)

    def test_friendship_even(self):
        assert degree_sequence(friendship(6)) == (5, 2, 2, 2, 2, 1)

    def test_complete_bipartite(self):
        assert degree_sequence(complete_bipartite(3, 7)) == (4, 4, 4, 3, 3, 3, 3)

    def test_single_vertex(self):
        assert degree_sequence(new_graph(1, [])) == (0,)


class TestEp:
    def test_friendship_5(self):
        assert ep(friendship(5), 2) == 32  # 16 + 4*4

    def test_empty(self):
        assert ep(new_graph(4, []), 3) == 0

    def test_k23_cubed(self):
        assert ep(complete_bipartite(2, 5), 3) == 78  # 2*27 + 3*8

    def test_huge_values_exact(self):
        g = new_graph(64, [(0, v) for v in range(1, 64)])
        assert ep(g, 20) == 63**20 + 63  # far beyond 64-bit range

    def test_p_below_one(self):
        with pytest.raises(ValueError):
            ep(K3, 0)


class TestGraph6:
    def test_hand_encoded_values(self):
        # derived by hand from the published format definition
        assert to_graph6(K4) == b"C~"
        assert to_graph6(new_graph(1, [])) == b"@"
        assert to_graph6(K3) == b"Bw"

    def test_round_trip_random(self):
        rng = random.Random(2024)
        for _ in range(1000):
            g = random_graph(rng, rng.randint(1, 20), rng.random())
            assert from_graph6(to_graph6(g)) == g

    def test_round_trip_large_orders(self):
        rng = random.Random(5)
        for n in (62, 63, 64):
            g = random_graph(rng, n, 0.3)
            s = to_graph6(g)
            if n >= 63:
                assert s[0] == 126  # long-form header
            assert from_graph6(s) == g

    def test_string_input(self):
        assert from_graph6("C~") == K4

    def test_byte_out_of_range(self):
        with pytest.raises(ValueError):
            from_graph6(b"C\x1f")

    def test_bad_length(self):
        with pytest.raises(ValueError):
            from_graph6(b"C~~")

    def test_nonzero_padding_rejected(self):
        # K3 body is 111000; flip a padding bit
        bad = bytes([63 + 3, 63 + 0b111001])
        with pytest.raises(ValueError):
            from_graph6(bad)

    def test_order_beyond_cap(self):
        with pytest.raises(ValueError):
            from_graph6(bytes([126, 63, 64, 63 + 1]))  # n = 65

    def test_non_canonical_long_header(self):
        with pytest.raises(ValueError):
            from_graph6(bytes([126, 63, 63, 63 + 5]) + b"?")  # n=5 in long form

    def test_empty_string(self):
        with pytest.raises(ValueError):
            from_graph6(b"")

    @pytest.mark.parametrize("s, message", [
        (b"~", "truncated graph6 header"),
        (b"~?@", "truncated graph6 header"),
        (b"~~???", "graph6 order beyond supported range"),
    ])
    def test_malformed_long_header(self, s, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            from_graph6(s)

    def test_against_networkx(self):
        # every class for n <= 6, and a seeded sample up to n = 64 that
        # includes the long header at n >= 63
        nx = pytest.importorskip("networkx")
        graphs = []
        for n in range(1, 7):
            enumerate_graphs(n, visit=graphs.append)
        rng = random.Random(64)
        graphs += [random_graph(rng, rng.randint(7, 64), rng.random()) for _ in range(40)]
        graphs += [random_graph(rng, n, rng.random()) for n in (62, 63, 63, 64, 64)]
        for g in graphs:
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            assert nx.to_graph6_bytes(h, header=False).rstrip(b"\n") == to_graph6(g)
            back = nx.from_graph6_bytes(to_graph6(g))
            assert back.number_of_nodes() == g.n
            assert {(min(e), max(e)) for e in back.edges()} == set(g.edges())


class TestInducedSubgraph:
    def test_k4_triangle(self):
        assert induced_subgraph(K4, [0, 1, 2]) == K3

    def test_friendship_leaves_matching(self):
        sub = induced_subgraph(friendship(5), [1, 2, 3, 4])
        assert degree_sequence(sub) == (1, 1, 1, 1)

    def test_wheel_rim_is_cycle(self):
        rim = induced_subgraph(wheel(6), range(5))
        assert degree_sequence(rim) == (2, 2, 2, 2, 2)
        assert rim.edge_count() == 5

    def test_bitset_selection(self):
        assert induced_subgraph(K4, 0b0111) == K3

    def test_empty_selection(self):
        with pytest.raises(ValueError):
            induced_subgraph(K4, [])

    @pytest.mark.parametrize("vertices", [[0, 4], [-1, 2]])
    def test_vertex_out_of_range(self, vertices):
        with pytest.raises(ValueError, match="^selected vertex out of range$"):
            induced_subgraph(K4, vertices)


@settings(max_examples=200, deadline=None)
@given(graphs_strategy())
def test_handshake(g):
    assert sum(degree_sequence(g)) == 2 * g.edge_count()
    assert ep(g, 1) == 2 * g.edge_count()


@settings(max_examples=200, deadline=None)
@given(graphs_strategy(), st.randoms(use_true_random=False), st.integers(1, 6))
def test_ep_label_invariant(g, rng, p):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert ep(permute(g, perm), p) == ep(g, p)


@settings(max_examples=200, deadline=None)
@given(graphs_strategy())
def test_graph6_round_trip_property(g):
    assert from_graph6(to_graph6(g)) == g


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=0, max_size=12))
def test_graph6_parser_rejects_garbage_cleanly(data):
    try:
        g = from_graph6(data)
    except ValueError:
        return
    # anything accepted must round-trip to the same bytes
    assert to_graph6(g) == data
