"""Acceptance gate: every stated criterion checked exactly, zero tolerance.

One test per criterion, each printing a PASS/FAIL line (visible with -s or
-v).  Everything is an exact integer comparison; there are no tolerances to
tune.  The heavy enumerations (full n=8 table, the C4-free n=9 search) are
cached per process, so the whole module runs in about 20 s.
"""

from __future__ import annotations

import random
import time
from itertools import combinations

from degpow.enumeration import canonical_form, canonical_graph
from degpow.families import FamilyId, complete_bipartite, ep_closed_form, polarity_graph
from degpow.graphs import Graph, degree_sequence, ep, to_graph6
from degpow.majorization import Prop1Verdict, prop1_check
from degpow import structure
from degpow.structure import (
    degeneracy,
    has_c4,
    has_even_cycle,
    is_k_degenerate,
    is_maximal_k_degenerate,
    vertex_connectivity,
)
from degpow.verify import (
    appendix_a_scan,
    brute_force_theorem,
    lemma_tuple_check,
    polarity_check,
    run_task,
    threshold_scan,
)

from helpers import (
    cycle_has_chord,
    every_class,
    oracle_cycles,
    oracle_edge_connectivity,
    oracle_has_c4,
    oracle_has_even_cycle,
    oracle_is_minimal,
    oracle_vertex_connectivity,
)


def _verdict(criterion: str, ok: bool, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({time.time() - started:.1f}s)")
    assert ok, f"criterion {criterion}"


def _cg6(g: Graph) -> str:
    return to_graph6(canonical_graph(g)).decode("ascii")


def test_criterion_01_wheel_threshold_table():
    t0 = time.time()
    values = [threshold_scan("W_vs_K3", p, 200) for p in range(2, 12)]
    _verdict("1 wheel-vs-K3 threshold table", values == [8, 9, 10, 12, 13, 15, 17, 19, 21, 23], t0)


def test_criterion_02_friendship_thresholds():
    t0 = time.time()
    ok = threshold_scan("F_vs_K2", 2, 201) == 7
    ok &= threshold_scan("F_vs_K2", 3, 201) == 7
    ok &= threshold_scan("F_vs_K2", 4, 201) == 9
    friendship, k2 = FamilyId("friendship"), FamilyId("complete_bipartite", t=2)
    for p in range(5, 9):
        ok &= threshold_scan("F_vs_K2", p, 201) <= 2 * p - 1
        for n in range(2 * p - 1, 202, 2):  # Appendix A(i) tail, directly
            ok &= ep_closed_form(friendship, n, p) < ep_closed_form(k2, n, p)
    _verdict("2 friendship-vs-K2 thresholds", ok, t0)


# Theorem 1's classes: C4-free, at most 3(n-1)/2 edges, no isolated vertex.
# They are the pinned capped C4-free classes (tests/test_enumeration.py's
# PINNED_CLASS_SETS) less those with an isolated vertex, which are the
# C4-free classes on n - 1 vertices (4, 8, 18, 44, 117, 351; each has at
# most ex(n - 1, C4) edges, within the cap).  The cap binds from n = 8 on.
T1_CLASSES = {4: 4, 5: 10, 6: 26, 7: 73, 8: 229, 9: 869}


def test_criterion_03_theorem1_brute_force():
    t0 = time.time()
    ok = True
    for n in range(4, 10):
        for p in (2, 3):
            rec = brute_force_theorem("t1", n, p)
            ok &= rec.verdict == "pass"
            ok &= rec.detail["graphs_examined"] == T1_CLASSES[n]
    _verdict("3 theorem 1 brute force (n<=9)", ok, t0)


def test_criterion_04_corollary1_brute_force():
    t0 = time.time()
    ok = True
    for n in range(4, 9):
        for p in (2, 3):
            rec = brute_force_theorem("c1", n, p)
            ok &= rec.verdict == "pass"
    _verdict("4 corollary 1 brute force", ok, t0)


def test_criterion_05_theorem2_brute_force():
    t0 = time.time()
    ok = True
    k2 = FamilyId("complete_bipartite", t=2)
    ps = (2, 3, 4, 5)
    for n in range(4, 9):
        # one pass per check scores every p; records come out p-major
        records = run_task(("theorem", {"thm": "t2", "n": n, "p_values": ps}))
        ok &= [(r.check, r.params["p"]) for r in records] == [
            (check, p) for p in ps for check in ("t2i", "t2ii")]
        for p, rec_i, rec_ii in zip(ps, records[::2], records[1::2]):
            ok &= rec_i.verdict == "pass"
            ok &= rec_i.value == 2 * (n - 2) ** p + (n - 2) * 2**p
            ok &= rec_ii.verdict == "pass"
            ep_k = ep_closed_form(k2, n, p)
            if n % 2:
                ok &= rec_ii.value == max(ep_closed_form(FamilyId("friendship"), n, p), ep_k)
            else:
                # F_n has a pendant vertex at even n and leaves the class
                ok &= rec_ii.value == ep_k
    _verdict("5 theorem 2 brute force", ok, t0)


def test_criterion_06_theorem3_brute_force():
    t0 = time.time()
    rec = brute_force_theorem("t3", 8, 2)
    ok = rec.verdict == "pass"
    ok &= rec.value == 120
    ok &= rec.detail["found_witnesses"] == [_cg6(complete_bipartite(3, 8))]
    ok &= ep_closed_form(FamilyId("wheel"), 8, 2) == 112
    _verdict("6 theorem 3 brute force at n=8", ok, t0)


def test_criterion_07_theorem4_brute_force():
    t0 = time.time()
    ok = True
    for k in (1, 2, 3):
        for n in range(k + 1, 9):
            for p in (2, 3):
                rec = brute_force_theorem("t4", n, p, k=k)
                ok &= rec.verdict == "pass"
                ok &= rec.value == k * (n - 1) ** p + (n - k) * k**p
    _verdict("7 theorem 4 brute force", ok, t0)


def test_criterion_08_lemma_scans():
    t0 = time.time()
    ok = True
    for n in range(7, 62, 2):
        for p in range(2, 9):
            rec = lemma_tuple_check("lemma1", n, p)
            ok &= rec.verdict == "pass"
            ok &= rec.detail["equality_i"] == (p == 2)
    for n in range(6, 61, 2):
        for p in range(2, 9):
            rec = lemma_tuple_check("lemma12", n, p)
            ok &= rec.verdict == "pass"
            ok &= not rec.detail["equality_i"]
    _verdict("8 comparison-tuple scans", ok, t0)


def test_criterion_09_appendix_a():
    t0 = time.time()
    ok = True
    for p in range(5, 13):
        ok &= appendix_a_scan("i", p, 401).verdict == "pass"
    for p in range(12, 17):
        ok &= appendix_a_scan("ii", p, 401).verdict == "pass"
    _verdict("9 appendix A scans", ok, t0)


def test_criterion_10_polarity():
    t0 = time.time()
    ok = True
    for q in (2, 3, 4, 5, 7):
        g = polarity_graph(q)
        degs = degree_sequence(g)
        ok &= g.n == q * q + q + 1
        ok &= degs.count(q) == q + 1 and degs.count(q + 1) == q * q
        ok &= not has_c4(g)
        diff = ep(g, 2) - ep_closed_form(FamilyId("friendship"), g.n, 2)
        ok &= diff == q * (q + 1) * (q - 4)
        ok &= ep(g, 2) == q * q * (q + 1) * (q + 2)
        for p in range(3, 7):
            rec = polarity_check(q, p)
            ok &= rec.verdict == "pass" and rec.value > 0
    ok &= polarity_check(5, 2).value == 30
    ok &= polarity_check(4, 2).value == 0
    for q in (8, 9, 11):  # closed forms beyond the construction cap
        for p in range(2, 7):
            ok &= polarity_check(q, p).verdict == "pass"
    _verdict("10 polarity identities", ok, t0)


# -- criterion 11: oracle equivalence and structural property suites ------------


def test_criterion_11a_class_counts():
    t0 = time.time()
    ok = True
    counts = []
    for n in range(1, 9):
        classes = every_class(n)
        counts.append(len(classes))
        for g in classes:  # handshake over every enumerated graph
            ok &= sum(degree_sequence(g)) == 2 * g.edge_count() == ep(g, 1)
    ok &= counts == [1, 2, 4, 11, 34, 156, 1044, 12346]
    _verdict("11a class counts n=1..8 (+handshake)", ok, t0)


def test_criterion_11b_even_cycle_oracle():
    t0 = time.time()
    ok = all(
        has_even_cycle(g) == oracle_has_even_cycle(g)
        for n in range(1, 9)
        for g in every_class(n)
    )
    _verdict("11b even-cycle detection vs DFS oracle (n<=8)", ok, t0)


def test_criterion_11c_vertex_connectivity_oracle():
    t0 = time.time()
    ok = all(
        vertex_connectivity(g) == oracle_vertex_connectivity(g)
        for n in range(1, 8)
        for g in every_class(n)
    )
    _verdict("11c vertex connectivity vs cut oracle (n<=7)", ok, t0)


def test_criterion_11d_majorization_random_suite():
    t0 = time.time()
    rng = random.Random(0xDE65)
    ok = True
    for _ in range(10_000):
        length = rng.randint(1, 12)
        y = sorted((rng.randint(0, 50) for _ in range(length)), reverse=True)
        x = list(y)
        for _ in range(rng.randint(0, 8)):
            if rng.random() < 0.5:
                i = rng.randrange(length)
                if x[i] > 0:
                    x[i] -= 1
            else:
                i, j = rng.randrange(length), rng.randrange(length)
                if x[i] > x[j] + 1:
                    x[i] -= 1
                    x[j] += 1
            x.sort(reverse=True)
        for p in range(2, 7):
            verdict = prop1_check(x, y, p)
            if x == y:
                ok &= verdict is Prop1Verdict.HOLDS_EQUAL
            else:
                ok &= verdict is Prop1Verdict.HOLDS_STRICT
    _verdict("11d norm comparison randomized suite (10^4 pairs)", ok, t0)


def _has_triangle(g: Graph) -> bool:
    return any((g.adj[u] & g.adj[v]).bit_count() for u, v in g.edges())


def test_criterion_11e_c4_engine():
    t0 = time.time()
    ok = True
    for n in range(1, 8):
        for g in every_class(n):
            ok &= has_c4(g) == oracle_has_c4(g)
            if not has_c4(g):
                # the union/intersection degree bound behind the C4-free case
                for u in range(g.n):
                    for v in range(u + 1, g.n):
                        union = (g.adj[u] | g.adj[v]).bit_count()
                        inter = (g.adj[u] & g.adj[v]).bit_count()
                        ok &= g.degree(u) + g.degree(v) == union + inter <= n + 1
    _verdict("11e C4-freeness engine and degree-sum bound (n<=7)", ok, t0)


def _minimally_connected(g: Graph, t: int) -> bool:
    """Class membership by brute-force vertex cuts at n <= 7, and by the flow
    definition at n = 8, not by the prefiltered public predicate."""
    if g.n <= 7:
        return oracle_is_minimal(oracle_vertex_connectivity, g, t)
    return structure._flows_minimally_t_connected(g, t)


def _minimally_2_edge_connected(g: Graph) -> bool:
    """Class membership by brute-force edge cuts at n <= 7, and by the flow
    definition at n = 8, not by the cycle-space labels."""
    if g.n <= 7:
        return oracle_is_minimal(oracle_edge_connectivity, g, 2)
    return structure._flows_minimally_t_edge_connected(g, 2)


def test_criterion_11f_minimally_connected_lemmas():
    """Membership from _minimally_connected: cut oracles at n <= 7, flows at n = 8."""
    t0 = time.time()
    ok = True
    for n in range(2, 9):
        for g in every_class(n):
            degs = degree_sequence(g)
            for t in (1, 2, 3):
                if _minimally_connected(g, t):
                    ok &= degs[-1] == t  # minimum degree equals t
                    if t == 2 and n >= 4:
                        ok &= not _has_triangle(g)
                    if t in (2, 3) and n >= 3 * t - 1:
                        m = g.edge_count()
                        ok &= m <= t * (n - t)
                        if m == t * (n - t):
                            ok &= canonical_form(g) == canonical_form(
                                complete_bipartite(t, n)
                            )
    _verdict("11f minimally t-connected lemmas (degree, triangle, edge bound)", ok, t0)


def test_criterion_11g_minimally_edge_connected_lemmas():
    """Membership from _minimally_2_edge_connected: cut oracles at n <= 7,
    flows at n = 8; cycles from the path-DFS oracle."""
    t0 = time.time()
    ok = True
    for n in range(2, 9):
        for g in every_class(n):
            if _minimally_2_edge_connected(g):
                ok &= degree_sequence(g)[-1] == 2
                if 6 <= n <= 8:
                    m = g.edge_count()
                    ok &= m <= 2 * (n - 2)
                    if m == 2 * (n - 2):
                        ok &= canonical_form(g) == canonical_form(
                            complete_bipartite(2, n)
                        )
                if n <= 7:
                    ok &= not any(cycle_has_chord(g, c) for c in oracle_cycles(g))
    _verdict("11g minimally 2-edge-connected lemmas (degree, chords, edge bound)", ok, t0)


def test_criterion_11h_cycles_in_minimally_3_connected():
    """Membership by the flow definition; cycles from the path-DFS oracle."""
    t0 = time.time()
    ok = True
    for g in every_class(8):
        if _minimally_connected(g, 3):
            for cycle in oracle_cycles(g):
                ok &= sum(1 for v in cycle if g.degree(v) == 3) >= 2
    _verdict("11h every cycle of a minimally 3-connected graph (n=8)", ok, t0)


def test_criterion_11i_maximal_degenerate_lemma():
    t0 = time.time()
    ok = True
    for n in range(2, 9):
        for g in every_class(n):
            for k in (1, 2, 3):
                if n >= k + 1 and is_maximal_k_degenerate(g, k):
                    ok &= degree_sequence(g)[-1] == k
                    ok &= g.edge_count() == k * n - k * (k + 1) // 2
    _verdict("11i maximal k-degenerate minimum degree", ok, t0)
