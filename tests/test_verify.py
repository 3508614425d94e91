from __future__ import annotations

import pytest

from degpow.families import FamilyId, ep_closed_form
from degpow.majorization import p_power_norm
from degpow.verify import (
    VerificationRecord,
    appendix_a_scan,
    brute_force_theorem,
    lemma_tuple_check,
    lemma_tuples,
    polarity_check,
    run_task,
    suite_tasks,
    theorem_records,
    threshold_record,
    threshold_scan,
    validate_task,
)


class TestVerificationRecord:
    def test_fail_requires_witness(self):
        with pytest.raises(ValueError):
            VerificationRecord(check="x", params={}, verdict="fail")

    def test_bad_verdict(self):
        with pytest.raises(ValueError):
            VerificationRecord(check="x", params={}, verdict="maybe")


class TestLemmaTuples:
    def test_display_n7(self):
        t1, t2, part_ii = lemma_tuples("lemma1", 7)
        assert t1 == (6, 2, 2, 2, 2, 2, 2)
        assert t2 == (4, 4, 4, 3, 1, 1, 1)
        assert part_ii == {2: (5, 3, 3, 3, 2, 1, 1)}

    def test_display_n9_q2(self):
        # r = 3 trailing ones; epsilon = 1 folded into the entry q+1-epsilon = 2
        t3 = lemma_tuples("lemma1", 9)[2][2]
        assert t3 == (7, 3, 3, 3, 3, 2, 1, 1, 1)
        assert sum(t3) == 24

    def test_display_lemma12_n6(self):
        # the q-range is empty at n=6; build the displayed tuples at n=8
        t1, t2, _ = lemma_tuples("lemma12", 8)
        assert t1 == (7, 2, 2, 2, 2, 2, 2, 1)
        assert t2 == (5, 4, 4, 3, 1, 1, 1, 1)

    def test_sums(self):
        for n in range(7, 30, 2):
            t1, t2, part_ii = lemma_tuples("lemma1", n)
            for t in (t1, t2, *part_ii.values()):
                assert sum(t) == 3 * (n - 1)
        for n in range(8, 30, 2):
            t1, t2, part_ii = lemma_tuples("lemma12", n)
            for t in (t1, t2, *part_ii.values()):
                assert sum(t) == 3 * n - 4

    def test_q_range_boundaries(self):
        assert list(lemma_tuples("lemma1", 7)[2]) == [2]
        assert lemma_tuples("lemma12", 6)[2] == {}
        assert list(lemma_tuples("lemma1", 9)[2]) == [2, 3]
        assert list(lemma_tuples("lemma12", 10)[2]) == [2, 3]

    def test_n_validation(self):
        with pytest.raises(ValueError):
            lemma_tuple_check("lemma1", 8, 2)
        with pytest.raises(ValueError):
            lemma_tuple_check("lemma12", 7, 2)
        with pytest.raises(ValueError):
            lemma_tuple_check("lemma1", 7, 1)

    def test_check_equality_at_p2(self):
        rec = lemma_tuple_check("lemma1", 7, 2)
        assert rec.verdict == "pass"
        assert rec.detail["equality_i"] and rec.detail["norm1"] == 60

    def test_check_strict_at_n9(self):
        rec = lemma_tuple_check("lemma1", 9, 2)
        assert rec.verdict == "pass"
        # q=2 instance: 92 < 96
        assert p_power_norm(lemma_tuples("lemma1", 9)[2][2], 2) == 92
        assert rec.detail["norm1"] == 96

    def test_lemma12_gap_is_n_minus_4(self):
        rec = lemma_tuple_check("lemma12", 6, 2)
        assert rec.verdict == "pass"
        assert rec.detail["norm1"] - rec.detail["norm2"] == 2


class TestThresholds:
    def test_wheel_table(self):
        values = [threshold_scan("W_vs_K3", p, 200) for p in range(2, 12)]
        assert values == [8, 9, 10, 12, 13, 15, 17, 19, 21, 23]

    def test_friendship_remark(self):
        assert threshold_scan("F_vs_K2", 2, 201) == 7
        assert threshold_scan("F_vs_K2", 3, 201) == 7
        assert threshold_scan("F_vs_K2", 4, 201) == 9

    def test_p6_threshold(self):
        # p=6 still fails at n=9 (262656 > 235746) and holds from n=11 on
        lhs = ep_closed_form(FamilyId("friendship"), 9, 6)
        rhs = ep_closed_form(FamilyId("complete_bipartite", t=2), 9, 6)
        assert lhs > rhs
        assert threshold_scan("F_vs_K2", 6, 201) == 11

    def test_records(self):
        assert threshold_record("W_vs_K3", 5).verdict == "pass"
        rec = threshold_record("F_vs_K2", 8)
        assert rec.verdict == "pass" and rec.value <= 15

    def test_wheel_beyond_table_checks_appendix_bound(self, monkeypatch):
        # Appendix A part (ii) puts the W_vs_K3 tail start at n0 <= 2p
        rec = threshold_record("W_vs_K3", 12)
        assert rec.verdict == "pass" and rec.value <= 24
        assert rec.detail == {"expected_at_most": 24}
        import degpow.verify as verify_mod

        monkeypatch.setattr(verify_mod, "threshold_scan", lambda pair, p, n_max: 2 * p + 1)
        rec = threshold_record("W_vs_K3", 12)
        assert rec.verdict == "fail"
        assert rec.witness == {"n0": 25, "expected_at_most": 24}

    @pytest.mark.parametrize("args, message", [
        (("nope", 5), "unknown pair 'nope'"),
        (("W_vs_K3", 1), "p must be >= 2"),
        (("F_vs_K2", 5, 10), "n_max too small to see the tail"),
    ], ids=str)
    def test_bad_record_arguments_raise(self, args, message):
        # a bad argument is not a counterexample to the table
        with pytest.raises(ValueError, match=message):
            threshold_record(*args)
        pair, p, *n_max = args
        with pytest.raises(ValueError, match=message):
            run_task(("threshold", {"pair": pair, "p": p, "n_max": n_max[0] if n_max else None}))

    def test_no_threshold_is_a_failed_record(self, monkeypatch):
        import degpow.verify as verify_mod

        monkeypatch.setattr(verify_mod, "ep_closed_form", lambda family, n, p: 0)
        rec = threshold_record("W_vs_K3", 5)
        assert rec.verdict == "fail" and rec.value is None
        assert rec.params == {"pair": "W_vs_K3", "p": 5, "n_max": 200}
        assert rec.witness == "no threshold within n_max=200 for W_vs_K3, p=5"

    def test_window_validation(self):
        with pytest.raises(ValueError):
            threshold_scan("W_vs_K3", 2, 6)
        with pytest.raises(ValueError):
            threshold_scan("nope", 2, 200)
        with pytest.raises(ValueError):
            threshold_scan("W_vs_K3", 1, 200)


class TestAppendixA:
    def test_part_i_passes(self):
        rec = appendix_a_scan("i", 5, 401)
        assert rec.verdict == "pass"
        assert rec.detail["min_value"] == 814  # attained at n = 2p-1 = 9

    def test_part_i_single_point_relation(self):
        # h1(9) equals the gap between the two closed forms at n=9
        f = ep_closed_form(FamilyId("friendship"), 9, 5)
        k = ep_closed_form(FamilyId("complete_bipartite", t=2), 9, 5)
        assert f == 33024 and k == 33838
        assert k - f == 814

    def test_part_ii_passes(self):
        assert appendix_a_scan("ii", 12, 401).verdict == "pass"

    def test_validation(self):
        with pytest.raises(ValueError):
            appendix_a_scan("i", 4, 401)
        with pytest.raises(ValueError):
            appendix_a_scan("ii", 11, 401)
        with pytest.raises(ValueError):
            appendix_a_scan("iii", 12, 401)

    def test_empty_window_rejected(self):
        # part i at p=5 starts at n=9, part ii at p=12 at n=24
        with pytest.raises(ValueError, match="n_max >= 9"):
            appendix_a_scan("i", 5, 8)
        with pytest.raises(ValueError, match="n_max >= 24"):
            appendix_a_scan("ii", 12, 23)
        assert appendix_a_scan("i", 5, 9).detail["scanned"] == 1


class TestPolarity:
    def test_q5(self):
        rec = polarity_check(5, 2)
        assert rec.verdict == "pass"
        assert rec.value == 30
        assert rec.detail["e2_pg"] == 1050  # 25*6*7

    def test_q4_difference_vanishes(self):
        rec = polarity_check(4, 2)
        assert rec.verdict == "pass" and rec.value == 0

    def test_q2_p3(self):
        rec = polarity_check(2, 3)
        assert rec.verdict == "pass"
        assert rec.value == 132 and rec.detail["formula"] == 132

    def test_closed_form_only_orders(self):
        for q in (8, 9, 11):
            for p in (2, 3, 4, 5, 6):
                rec = polarity_check(q, p)
                assert rec.verdict == "pass"
                assert rec.detail["constructed"] is False

    def test_not_prime_power(self):
        with pytest.raises(ValueError):
            polarity_check(6, 2)


class TestBruteForce:
    def test_t1_small(self):
        for n, p, expected in ((4, 2, 18), (5, 2, 32), (5, 3, 96), (6, 2, 42)):
            rec = brute_force_theorem("t1", n, p)
            assert rec.verdict == "pass" and rec.value == expected

    def test_c1_small(self):
        rec = brute_force_theorem("c1", 5, 2)
        assert rec.verdict == "pass" and rec.value == 32
        assert rec.detail["max_edges_seen"] <= rec.detail["edge_cap"]
        assert rec.detail["min_degree_filter_agrees"]

    def test_t2i(self):
        rec = brute_force_theorem("t2i", 6, 3)
        assert rec.verdict == "pass" and rec.value == 160  # 2*64 + 4*8

    def test_t2ii_even_n_excludes_friendship(self):
        # even n: the friendship graph has a pendant vertex and is not in the
        # class, so the bipartite graph alone is extremal
        rec = brute_force_theorem("t2ii", 4, 2)
        assert rec.verdict == "pass" and rec.value == 16
        assert len(rec.detail["expected_witnesses"]) == 1

    def test_t2ii_odd_n_friendship_wins_small(self):
        rec = brute_force_theorem("t2ii", 5, 2)
        assert rec.verdict == "pass" and rec.value == 32

    def test_t4(self):
        rec = brute_force_theorem("t4", 5, 2, k=1)
        assert rec.verdict == "pass" and rec.value == 16 + 4  # star S_5

    def test_validation(self):
        with pytest.raises(ValueError):
            brute_force_theorem("t1", 3, 2)
        with pytest.raises(ValueError):
            brute_force_theorem("t3", 7, 2)
        with pytest.raises(ValueError):
            brute_force_theorem("t4", 5, 2)  # k missing
        with pytest.raises(ValueError):
            brute_force_theorem("t9", 5, 2)


class TestGuardsWithoutAsserts:
    def test_closed_form_mismatch_fails_with_witness(self, monkeypatch):
        import degpow.verify as verify_mod

        monkeypatch.setattr(verify_mod, "ep_closed_form",
                            lambda family, n, p: ep_closed_form(family, n, p) + 1)
        rec = brute_force_theorem("t2i", 5, 2)
        assert rec.verdict == "fail"
        assert rec.witness == {"graph6": rec.detail["expected_witnesses"][0],
                               "closed_form": 31, "ep": 30}

    def test_malformed_lemma_tuple_fails_with_witness(self, monkeypatch):
        import degpow.verify as verify_mod

        def build(lemma, n):
            t1, t2, part_ii = lemma_tuples(lemma, n)
            return t1, t2, {q: t3[::-1] for q, t3 in part_ii.items()}

        monkeypatch.setattr(verify_mod, "lemma_tuples", build)
        rec = lemma_tuple_check("lemma1", 9, 2)
        assert rec.verdict == "fail"
        assert rec.witness == {"malformed": [1, 1, 1, 2, 3, 3, 3, 3, 7], "sum": 24}


class TestSuites:
    def test_task_lists_deterministic(self):
        assert suite_tasks("polarity") == suite_tasks("polarity")
        with pytest.raises(ValueError):
            suite_tasks("nope")

    def test_run_task_dispatch(self):
        records = run_task(("lemma", {"lemma": "lemma1", "n": 7, "p": 2}))
        assert len(records) == 1 and records[0].verdict == "pass"
        records = run_task(("theorem", {"thm": "t2", "n": 4, "p_values": (2,)}))
        assert [r.check for r in records] == ["t2i", "t2ii"]
        records = run_task(("theorem", {"thm": "t4", "n": 3, "p_values": (2, 3),
                                        "k_values": (1, 2, 3)}))
        # p-major: for each p, every k that n >= k+1 admits
        assert [(r.params["p"], r.params["k"]) for r in records] == [(2, 1), (2, 2), (3, 1), (3, 2)]
        with pytest.raises(ValueError):
            run_task(("nope", {}))

    @pytest.mark.parametrize("thm, n, k_values", [
        ("t4", 5, None), ("t4", 5, ()), ("t4", 3, (3,)), ("t4", 4, (4, 5)),
    ], ids=str)
    def test_theorem_task_running_no_check_raises(self, thm, n, k_values):
        # the library path refuses what validate_task refuses, with the same error
        task = ("theorem", {"thm": thm, "n": n, "p_values": (2,), "k_values": k_values})
        with pytest.raises(ValueError, match="runs no check") as rejected:
            validate_task(task)
        for run in (lambda: run_task(task), lambda: theorem_records(thm, n, (2,), k_values)):
            with pytest.raises(ValueError) as raised:
                run()
            assert str(raised.value) == str(rejected.value)

    def test_theorem_task_planned_once(self, monkeypatch):
        import degpow.verify as verify_mod

        planned = []
        plan = verify_mod._theorem_plan
        monkeypatch.setattr(verify_mod, "_theorem_plan",
                            lambda check, *args: planned.append(check) or plan(check, *args))
        records = run_task(("theorem", {"thm": "t2", "n": 4, "p_values": (2, 3)}))
        assert len(records) == 4 and planned == ["t2i", "t2ii"]

    def test_every_suite_task_validates(self):
        for task in suite_tasks("all-desk"):
            validate_task(task)

    @pytest.mark.parametrize("task", [
        ("polarity", {"q": 6, "p": 2}),
        ("polarity", {"q": 5, "p": 1}),
        ("lemma", {"lemma": "lemma1", "n": 8, "p": 2}),
        ("lemma", {"lemma": "lemma12", "n": 6, "p": 1}),
        ("threshold", {"pair": "W_vs_K3", "p": 5, "n_max": 13}),
        ("threshold", {"pair": "nope", "p": 5, "n_max": 200}),
        ("appendixA", {"part": "i", "p": 5, "n_max": 5}),
        ("appendixA", {"part": "ii", "p": 11}),
        ("theorem", {"thm": "t1", "n": 4, "p_values": (1,)}),
        ("theorem", {"thm": "t4", "n": 4, "p_values": (2,), "k_values": (4,)}),
        ("nope", {}),
    ], ids=str)
    def test_invalid_task_rejected_before_running(self, task):
        with pytest.raises(ValueError):
            validate_task(task)
