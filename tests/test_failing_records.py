"""Pins of every kind of failing record, forced by monkeypatch.

The all-desk grid passes everywhere, so its digests cover no failure path.
Each case below breaks one input of one check and pins the whole record
(to_dict), its CSV row and the stdout lines of the verify run that makes it.
"""

from __future__ import annotations

import pytest

import degpow.verify as verify_mod
from degpow.cli import main
from degpow.families import FamilyId, ep_closed_form
from degpow.verify import (
    appendix_a_scan,
    brute_force_theorem,
    lemma_tuple_check,
    lemma_tuples,
    polarity_check,
    threshold_record,
)


def _swap_part_i(mp):
    def build(lemma, n):
        t1, t2, part_ii = lemma_tuples(lemma, n)
        return t2, t1, part_ii

    mp.setattr(verify_mod, "lemma_tuples", build)


def _part_ii_equals_part_i(mp):
    def build(lemma, n):
        t1, t2, part_ii = lemma_tuples(lemma, n)
        return t1, t2, {q: t1 for q in part_ii}

    mp.setattr(verify_mod, "lemma_tuples", build)


def _reverse_part_ii(mp):
    def build(lemma, n):
        t1, t2, part_ii = lemma_tuples(lemma, n)
        return t1, t2, {q: t3[::-1] for q, t3 in part_ii.items()}

    mp.setattr(verify_mod, "lemma_tuples", build)


def _closed_form_plus_one(mp):
    mp.setattr(verify_mod, "ep_closed_form", lambda fam, n, p: ep_closed_form(fam, n, p) + 1)


def _t1_claims_k2(mp):
    # K_{2,n-2} contains a C4, so the search cannot find the claimed maximiser
    row = verify_mod.THEOREMS["t1"]
    mp.setitem(verify_mod.THEOREMS, "t1",
               row._replace(families=lambda n, k: (FamilyId("complete_bipartite", t=2),)))


def _wrong_table_entry(mp):
    row = verify_mod.THRESHOLD_PAIRS["W_vs_K3"]
    mp.setitem(verify_mod.THRESHOLD_PAIRS, "W_vs_K3", row._replace(table={**row.table, 5: 13}))


def _closed_forms_zero(mp):
    mp.setattr(verify_mod, "ep_closed_form", lambda fam, n, p: 0)


def _h_negative_from_21(mp):
    row = verify_mod.APPENDIX_PARTS["i"]
    mp.setitem(verify_mod.APPENDIX_PARTS, "i", row._replace(h=lambda n, p: 20 - n))


def _friendship_plus_one(mp):
    mp.setattr(verify_mod, "ep_closed_form",
               lambda fam, n, p: ep_closed_form(fam, n, p) + (fam.name == "friendship"))


def _polarity_e2_plus_one(mp):
    mp.setattr(verify_mod, "ep_closed_form",
               lambda fam, n, p: ep_closed_form(fam, n, p) + (fam.name == "polarity" and p == 2))


def _polarity_graph_has_c4(mp):
    mp.setattr(verify_mod, "has_c4", lambda g: True)


_LEMMA_DETAIL = {"norm1": 96, "norm2": 96, "equality_i": True, "q_checked": 2}
_T1_DETAIL = {"predicate": "c4_free,max_edges=6,min_degree=1", "graphs_examined": 10}
_W5 = {"pair": "W_vs_K3", "p": 5, "n_max": 200}
_NO_THRESHOLD = "no threshold within n_max=200 for W_vs_K3, p=5"

# id -> (patch, library call, verify argv, to_dict(), CSV row, stdout)
CASES = {
    "lemma-part-i": (
        _swap_part_i, lambda: lemma_tuple_check("lemma1", 9, 3),
        ("lemma1", "--n", "9", "--p", "3"),
        {"check": "lemma1", "params": {"n": 9, "p": 3}, "verdict": "fail", "value": None,
         "witness": {"part": "i", "tuple": [8, 2, 2, 2, 2, 2, 2, 2, 2], "norm": 576},
         "detail": {"norm1": 444, "norm2": 576, "equality_i": False, "q_checked": 2}},
        'lemma1,n=9;p=3,fail,,"{""norm"": 576, ""part"": ""i"", '
        '""tuple"": [8, 2, 2, 2, 2, 2, 2, 2, 2]}"',
        'lemma1 [n=9;p=3] fail\n'
        '  witness: {"norm": 576, "part": "i", "tuple": [8, 2, 2, 2, 2, 2, 2, 2, 2]}\n'),
    "lemma-part-ii": (
        _part_ii_equals_part_i, lambda: lemma_tuple_check("lemma1", 9, 2),
        ("lemma1", "--n", "9", "--p", "2"),
        {"check": "lemma1", "params": {"n": 9, "p": 2}, "verdict": "fail", "value": None,
         "witness": {"part": "ii", "q": 2, "tuple": [8, 2, 2, 2, 2, 2, 2, 2, 2], "norm": 96},
         "detail": _LEMMA_DETAIL},
        'lemma1,n=9;p=2,fail,,"{""norm"": 96, ""part"": ""ii"", ""q"": 2, '
        '""tuple"": [8, 2, 2, 2, 2, 2, 2, 2, 2]}"',
        'lemma1 [n=9;p=2] fail\n'
        '  witness: {"norm": 96, "part": "ii", "q": 2, "tuple": [8, 2, 2, 2, 2, 2, 2, 2, 2]}\n'),
    "lemma-malformed": (
        _reverse_part_ii, lambda: lemma_tuple_check("lemma1", 9, 2),
        ("lemma1", "--n", "9", "--p", "2"),
        {"check": "lemma1", "params": {"n": 9, "p": 2}, "verdict": "fail", "value": None,
         "witness": {"malformed": [1, 1, 1, 2, 3, 3, 3, 3, 7], "sum": 24}, "detail": {}},
        'lemma1,n=9;p=2,fail,,"{""malformed"": [1, 1, 1, 2, 3, 3, 3, 3, 7], ""sum"": 24}"',
        'lemma1 [n=9;p=2] fail\n'
        '  witness: {"malformed": [1, 1, 1, 2, 3, 3, 3, 3, 7], "sum": 24}\n'),
    "theorem-closed-form": (
        _closed_form_plus_one, lambda: brute_force_theorem("t1", 5, 2),
        ("thm1", "--n", "5", "--p", "2"),
        {"check": "t1", "params": {"n": 5, "p": 2}, "verdict": "fail", "value": 32,
         "witness": {"graph6": "DK{", "closed_form": 33, "ep": 32},
         "detail": {**_T1_DETAIL, "expected_max": 33, "expected_witnesses": ["DK{"],
                    "found_witnesses": ["DK{"]}},
        't1,n=5;p=2,fail,32,"{""closed_form"": 33, ""ep"": 32, ""graph6"": ""DK{""}"',
        't1 [n=5;p=2] fail value=32\n'
        '  witness: {"closed_form": 33, "ep": 32, "graph6": "DK{"}\n'),
    "theorem-witness-set": (
        _t1_claims_k2, lambda: brute_force_theorem("t1", 5, 2),
        ("thm1", "--n", "5", "--p", "2"),
        {"check": "t1", "params": {"n": 5, "p": 2}, "verdict": "fail", "value": 32,
         "witness": {"found": ["DK{"], "expected": ["DFw"]},
         "detail": {**_T1_DETAIL, "expected_max": 30, "expected_witnesses": ["DFw"],
                    "found_witnesses": ["DK{"]}},
        't1,n=5;p=2,fail,32,"{""expected"": [""DFw""], ""found"": [""DK{""]}"',
        't1 [n=5;p=2] fail value=32\n'
        '  witness: {"expected": ["DFw"], "found": ["DK{"]}\n'),
    "threshold-table": (
        _wrong_table_entry, lambda: threshold_record("W_vs_K3", 5),
        ("thresholds", "--pair", "W_vs_K3", "--p", "5"),
        {"check": "threshold", "params": _W5, "verdict": "fail", "value": 12,
         "witness": {"n0": 12, "expected": 13}, "detail": {"expected": 13}},
        'threshold,n_max=200;p=5;pair=W_vs_K3,fail,12,"{""expected"": 13, ""n0"": 12}"',
        'threshold [n_max=200;p=5;pair=W_vs_K3] fail value=12\n'
        '  witness: {"expected": 13, "n0": 12}\n'),
    "threshold-none": (
        _closed_forms_zero, lambda: threshold_record("W_vs_K3", 5),
        ("thresholds", "--pair", "W_vs_K3", "--p", "5"),
        {"check": "threshold", "params": _W5, "verdict": "fail", "value": None,
         "witness": _NO_THRESHOLD, "detail": {}},
        f'threshold,n_max=200;p=5;pair=W_vs_K3,fail,,"""{_NO_THRESHOLD}"""',
        'threshold [n_max=200;p=5;pair=W_vs_K3] fail\n'
        f'  witness: "{_NO_THRESHOLD}"\n'),
    "appendix-h": (
        _h_negative_from_21, lambda: appendix_a_scan("i", 5),
        ("appendixA", "--p", "5"),
        {"check": "appendixA", "params": {"part": "i", "p": 5, "n_max": 401},
         "verdict": "fail", "value": None, "witness": {"n": 21, "value": -1}, "detail": {}},
        'appendixA,n_max=401;p=5;part=i,fail,,"{""n"": 21, ""value"": -1}"',
        'appendixA [n_max=401;p=5;part=i] fail\n'
        '  witness: {"n": 21, "value": -1}\n'),
    "polarity-identity": (
        _friendship_plus_one, lambda: polarity_check(8, 3),
        ("polarity", "--q", "8", "--p", "3"),
        {"check": "polarity", "params": {"q": 8, "p": 3}, "verdict": "fail", "value": 322561,
         "witness": [{"identity": "b", "difference": 322561, "formula": 322560}],
         "detail": {"n": 73, "e2_pg": 5760, "difference": 322561, "formula": 322560,
                    "constructed": False}},
        'polarity,p=3;q=8,fail,322561,'
        '"[{""difference"": 322561, ""formula"": 322560, ""identity"": ""b""}]"',
        'polarity [p=3;q=8] fail value=322561\n'
        '  witness: [{"difference": 322561, "formula": 322560, "identity": "b"}]\n'),
    "polarity-identity-a": (
        _friendship_plus_one, lambda: polarity_check(8, 2),
        ("polarity", "--q", "8", "--p", "2"),
        {"check": "polarity", "params": {"q": 8, "p": 2}, "verdict": "fail", "value": 287,
         "witness": [{"identity": "a", "difference": 287}],
         "detail": {"n": 73, "e2_pg": 5760, "difference": 287, "constructed": False}},
        'polarity,p=2;q=8,fail,287,"[{""difference"": 287, ""identity"": ""a""}]"',
        'polarity [p=2;q=8] fail value=287\n'
        '  witness: [{"difference": 287, "identity": "a"}]\n'),
    # e_2(PG) one too large; at p = 3 identity (b) reads e_3 only, so (c) alone fails
    "polarity-identity-c": (
        _polarity_e2_plus_one, lambda: polarity_check(8, 3),
        ("polarity", "--q", "8", "--p", "3"),
        {"check": "polarity", "params": {"q": 8, "p": 3}, "verdict": "fail", "value": 322560,
         "witness": [{"identity": "c", "e2_pg": 5761}],
         "detail": {"n": 73, "e2_pg": 5761, "formula": 322560, "difference": 322560,
                    "constructed": False}},
        'polarity,p=3;q=8,fail,322560,"[{""e2_pg"": 5761, ""identity"": ""c""}]"',
        'polarity [p=3;q=8] fail value=322560\n'
        '  witness: [{"e2_pg": 5761, "identity": "c"}]\n'),
    "polarity-construction": (
        _polarity_graph_has_c4, lambda: polarity_check(2, 2),
        ("polarity", "--q", "2", "--p", "2"),
        {"check": "polarity", "params": {"q": 2, "p": 2}, "verdict": "fail", "value": -12,
         "witness": [{"identity": "construction", "degrees": [3, 3, 3, 3, 2, 2]}],
         "detail": {"n": 7, "e2_pg": 48, "difference": -12, "constructed": True}},
        'polarity,p=2;q=2,fail,-12,'
        '"[{""degrees"": [3, 3, 3, 3, 2, 2], ""identity"": ""construction""}]"',
        'polarity [p=2;q=2] fail value=-12\n'
        '  witness: [{"degrees": [3, 3, 3, 3, 2, 2], "identity": "construction"}]\n'),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_failing_record_pinned(case, monkeypatch, tmp_path, capsys):
    patch, call, argv, record, row, stdout = CASES[case]
    patch(monkeypatch)
    assert call().to_dict() == record
    path = tmp_path / "r.csv"
    assert main(["verify", *argv, "--csv", str(path)]) == 1
    assert path.read_text() == "suite,params,verdict,value,witness_g6\n" + row + "\n"
    assert capsys.readouterr().out == stdout + "0/1 checks passed\n"
