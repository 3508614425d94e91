from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from degpow.cli import main
from degpow.families import (
    FamilyId,
    POLARITY_ORDERS,
    _prime_power,
    complete_bipartite,
    construct,
    cycle_graph,
    ep_closed_form,
    finite_field,
    friendship,
    polarity_graph,
    projective_points,
    split_graph,
    star,
    wheel,
)
from degpow.graphs import degree_sequence, ep, to_graph6
from degpow.structure import (
    has_c4,
    has_even_cycle,
    is_maximal_k_degenerate,
    is_minimally_t_connected,
    is_minimally_t_edge_connected,
)

def _is_prime_by_trial(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _prime_powers(limit: int) -> list[int]:
    out = []
    for p in range(2, limit + 1):
        if _is_prime_by_trial(p):
            q = p
            while q <= limit:
                out.append(q)
                q *= p
    return sorted(out)


PRIME_POWERS_64 = _prime_powers(64)


class TestPrimePower:
    def test_agrees_with_the_oracle(self):
        powers = set(_prime_powers(10**4))
        for q in range(-2, 10**4 + 1):
            pk = _prime_power(q)
            assert (pk is not None) == (q in powers), q
            if pk is not None:
                assert _is_prime_by_trial(pk[0]) and pk[0] ** pk[1] == q

    def test_large_orders(self):
        # Miller-Rabin needs no trial division, so a 10-digit prime is instant
        assert _prime_power(1_000_000_007) == (1_000_000_007, 1)
        assert _prime_power(3**19) == (3, 19)
        assert _prime_power(2 * 1_000_000_007) is None

    @pytest.mark.parametrize("q, expected", [
        # Carmichael numbers
        (561, None),
        (41041, None),
        # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2, ..., 37
        (3215031751, None),
        (3825123056546413051, None),
        (2**61 - 1, (2**61 - 1, 1)),
        ((10**9 + 7) ** 2, (10**9 + 7, 2)),
        (3**40, (3, 40)),
        (2**200, (2, 200)),
        # above the exact bound, but the root is small or a base divides it
        ((2**61 - 1) ** 2, (2**61 - 1, 2)),
        (3 * (2**89 - 1), None),
    ])
    def test_pseudoprimes_and_large_powers(self, q, expected):
        assert _prime_power(q) == expected

    def test_prime_root_above_the_exact_bound_refused(self, capsys):
        # 2^89 - 1 is prime, and above 3.3 * 10^24 the 13 bases do not decide it
        with pytest.raises(ValueError, match="cannot decide"):
            _prime_power(2**89 - 1)
        assert main(["verify", "polarity", "--q", str(2**89 - 1), "--p", "2"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith("degpow: error: cannot decide whether ")


class TestConstructors:
    def test_star(self):
        assert degree_sequence(star(4)) == (3, 1, 1, 1)

    def test_cycle(self):
        assert ep(cycle_graph(5), 2) == 20
        assert cycle_graph(3).edge_count() == 3

    def test_friendship_shapes(self):
        assert degree_sequence(friendship(5)) == (4, 2, 2, 2, 2)
        assert degree_sequence(friendship(6)) == (5, 2, 2, 2, 2, 1)
        assert friendship(7).edge_count() == 9

    def test_wheel(self):
        assert degree_sequence(wheel(6)) == (5, 3, 3, 3, 3, 3)
        assert ep(wheel(6), 2) == 70

    def test_complete_bipartite(self):
        assert ep(complete_bipartite(2, 5), 2) == 30

    def test_split(self):
        assert ep(split_graph(6, 2), 2) == 66
        assert degree_sequence(split_graph(6, 2)) == (5, 5, 2, 2, 2, 2)

    @pytest.mark.parametrize(
        "build, args",
        [
            (star, (1,)),
            (cycle_graph, (2,)),
            (friendship, (1,)),
            (wheel, (3,)),
            (complete_bipartite, (0, 4)),
            (complete_bipartite, (4, 4)),
            (split_graph, (4, 4)),
            (split_graph, (4, 0)),
        ],
    )
    def test_parameter_validation(self, build, args):
        with pytest.raises(ValueError):
            build(*args)


class TestFiniteField:
    def test_prime_field(self):
        f = finite_field(5)
        assert f.mul(2, 3) == 1
        assert f.add(4, 3) == 2

    def test_gf4_multiplication(self):
        # reduction by x^2+x+1; elements are coefficient bit-vectors
        f = finite_field(4)
        assert f.reduction_poly == (1, 1, 1)
        assert f.mul(2, 2) == 3

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError):
            finite_field(6)
        with pytest.raises(ValueError):
            finite_field(1)

    def test_axioms_exhaustive_all_supported_orders(self):
        for q in PRIME_POWERS_64:
            f = finite_field(q)
            add = np.array(f.add_table, dtype=np.int64)
            mul = np.array(f.mul_table, dtype=np.int64)
            a = np.arange(q).reshape(q, 1, 1)
            b = np.arange(q).reshape(1, q, 1)
            c = np.arange(q).reshape(1, 1, q)
            assert (add == add.T).all() and (mul == mul.T).all()
            assert (add[a, add[b, c]] == add[add[a, b], c]).all()
            assert (mul[a, mul[b, c]] == mul[mul[a, b], c]).all()
            assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()
            assert (add[np.arange(q), 0] == np.arange(q)).all()
            assert (mul[np.arange(q), 1] == np.arange(q)).all()
            # inverses: every row of add hits 0; every nonzero row of mul hits 1
            assert (add == 0).sum(axis=1).min() == 1
            assert all((mul[x] == 1).sum() == 1 for x in range(1, q))


class TestPolarityGraph:
    def test_point_count(self):
        for q in POLARITY_ORDERS:
            assert len(projective_points(q)) == q * q + q + 1

    def test_q2_shape(self):
        g = polarity_graph(2)
        assert g.n == 7
        assert degree_sequence(g) == (3, 3, 3, 3, 2, 2, 2)
        assert g.edge_count() == 9

    def test_degree_split_and_c4_freeness(self):
        for q in POLARITY_ORDERS:
            g = polarity_graph(q)
            degs = degree_sequence(g)
            assert g.n == q * q + q + 1
            assert degs.count(q) == q + 1
            assert degs.count(q + 1) == q * q
            assert not has_c4(g)

    def test_q4_counts(self):
        degs = degree_sequence(polarity_graph(4))
        assert degs.count(4) == 5 and degs.count(5) == 16

    def test_e2_value(self):
        assert ep(polarity_graph(5), 2) == 1050

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            polarity_graph(8)  # 73 vertices exceeds the word cap
        with pytest.raises(ValueError):
            polarity_graph(6)


FAMILY_GRID = [
    (FamilyId("star"), range(2, 65)),
    (FamilyId("cycle"), range(3, 65)),
    (FamilyId("friendship"), range(2, 65)),
    (FamilyId("wheel"), range(4, 65)),
    (FamilyId("polarity"), POLARITY_ORDERS),
]
FAMILY_GRID += [(FamilyId("complete_bipartite", t=t), range(t + 1, 65)) for t in range(1, 64)]
FAMILY_GRID += [(FamilyId("split", k=k), range(k + 1, 65)) for k in range(1, 64)]


def test_closed_form_matches_construction_everywhere():
    for family, sizes in FAMILY_GRID:
        for size in sizes:
            g = construct(family, size)
            for p in range(1, 9):
                assert ep_closed_form(family, size, p) == ep(g, p), (family, size, p)


def test_every_labeling_pinned():
    # sha256 of the graph6 lines of every FAMILY_GRID member, in grid order,
    # pinned from the constructors before the family table replaced them
    digest = hashlib.sha256()
    members = 0
    for family, sizes in FAMILY_GRID:
        for size in sizes:
            digest.update(to_graph6(construct(family, size)) + b"\n")
            members += 1
    assert members == 4286
    assert digest.hexdigest() == "12b790592da29cf1a5efe29929e5229aa9592018804d3841e6c852c88a104216"


@pytest.mark.parametrize("argv, message", [
    (("construct", "star", "1"), "star needs n >= 2"),
    (("construct", "cycle", "2"), "cycle needs n >= 3"),
    (("construct", "friendship", "1"), "friendship graph needs n >= 2"),
    (("construct", "complete_bipartite", "0", "3"), "complete bipartite needs 1 <= t < n"),
    (("construct", "complete_bipartite", "3", "3"), "complete bipartite needs 1 <= t < n"),
    (("construct", "wheel", "3"), "wheel needs n >= 4"),
    (("construct", "split", "3", "0"), "split graph needs 1 <= k <= n-1"),
    (("construct", "split", "3", "3"), "split graph needs 1 <= k <= n-1"),
    (("verify", "polarity", "--q", "1", "--p", "2"), "1 is not a prime power"),
    (("construct", "polarity", "8"), "polarity graph needs q in (2, 3, 4, 5, 7)"),
], ids=["star", "cycle", "friendship", "bipartite-t", "bipartite-n", "wheel", "split-k",
        "split-n", "polarity-domain", "polarity-cap"])
def test_cli_error_just_outside_each_domain(capsys, argv, message):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"degpow: error: {message}\n"


def test_closed_form_examples():
    assert ep_closed_form(FamilyId("friendship"), 6, 2) == 42  # 25 + 16 + 1
    assert ep_closed_form(FamilyId("complete_bipartite", t=3), 8, 2) == 120
    assert ep_closed_form(FamilyId("polarity"), 2, 2) == 48


def test_friendship_no_even_cycles_up_to_cap():
    for n in range(2, 65):
        g = friendship(n)
        assert not has_c4(g)
        assert not has_even_cycle(g)
        assert g.edge_count() == 3 * (n - 1) // 2


def test_complete_bipartite_minimally_connected():
    for t in (1, 2, 3):
        for n in range(max(2 * t, t + 1), 13):
            g = complete_bipartite(t, n)
            assert is_minimally_t_connected(g, t), (t, n)
            assert is_minimally_t_edge_connected(g, t), (t, n)


def test_wheel_minimally_3_connected():
    for n in range(6, 13):
        assert is_minimally_t_connected(wheel(n), 3)


def test_split_graph_maximal_degenerate():
    for k in range(1, 5):
        for n in range(k + 1, 13):
            assert is_maximal_k_degenerate(split_graph(n, k), k)


def test_construct_dispatch_errors():
    with pytest.raises(ValueError):
        construct(FamilyId("complete_bipartite"), 5)  # missing t
    with pytest.raises(ValueError):
        construct(FamilyId("nosuch"), 5)
    with pytest.raises(ValueError):
        ep_closed_form(FamilyId("polarity"), 6, 2)
    with pytest.raises(ValueError, match="^p must be >= 1$"):
        ep_closed_form(FamilyId("star"), 5, 0)
