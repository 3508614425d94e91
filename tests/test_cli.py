from __future__ import annotations

import csv
import hashlib
import io
import json

import pytest

import degpow.cli as cli_mod
from degpow.cli import _build_tasks, _enum_guard, build_parser, main
from degpow.enumeration import ENUM_FAST_CAP, ENUM_HARD_CAP
from degpow.graphs import degree_sequence, from_graph6
from degpow.verify import SUITES, suite_tasks

# sha256 of `verify ... --json`, pinned from the reports before the theorem
# table replaced the per-theorem code
REPORT_DIGESTS = {
    ("thm1", "--n", "4..8"): "27a6d052df3f665130cfb22386817c271070b97c0d9b6becd86b77143bd43ead",
    ("cor1",): "402e5d84f50bde42dde6a3b8d95e2fc9151bb3f3fa377897fd2fc2801fd5bd21",
    ("thm2", "--n", "4..7"): "3e6490b306241566c5b85d96f1b910d848241349d5bc5349cd062bb421071345",
    ("thm4", "--n", "2..7"): "2aef61a27fe9ec5154d87118c774e36878bbb39b9b70d4c019ba2c5edbba99bf",
    ("lemma1",): "3a81b68aaef0a3aafca067dc74a54ae23e9efd8cdb591ce35f96b94f4119269a",
    ("lemma12",): "fde6b60cf40277eab3b2e3a93d1bb8c13e763b880fb99fe4412cfbf5a07399fb",
    ("thresholds",): "e39be3c80e8e06b06f8d2c907b9d03f255c9c96363324cebe1dbcd44aa0bc990",
    ("appendixA",): "40df5c0271d2eb979922217a0579be76211c4d3cf9355f95be907ff96e36ddd7",
    ("polarity",): "22ddd5217a9144fc11df361b5017bf1963e9c68292eabbb1f27ff86866ccbfe1",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstruct:
    def test_friendship_graph6(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "friendship", "5")
        assert code == 0
        assert degree_sequence(from_graph6(out.strip())) == (4, 2, 2, 2, 2)

    def test_polarity_edgelist(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "polarity", "2", "--out", "edgelist")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "7" and len(lines) == 1 + 9

    def test_wheel_too_small(self, capsys):
        code, out, err = run_cli(capsys, "construct", "wheel", "3")
        assert code == 2 and out == ""
        assert err == "degpow: error: wheel needs n >= 4\n"

    def test_bipartite_params(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "complete_bipartite", "2", "5")
        assert code == 0
        assert degree_sequence(from_graph6(out.strip())) == (3, 3, 2, 2, 2)

    def test_split_params(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "split", "6", "2")
        assert code == 0
        assert degree_sequence(from_graph6(out.strip())) == (5, 5, 2, 2, 2, 2)


class TestEp:
    def test_g6_input(self, capsys):
        code, out, _ = run_cli(capsys, "ep", "--g6", "C~", "--p", "2")
        assert code == 0 and out.strip() == "36"

    def test_friendship_31(self, capsys):
        _, g6, _ = run_cli(capsys, "construct", "friendship", "31")
        code, out, _ = run_cli(capsys, "ep", "--g6", g6.strip(), "--p", "2")
        assert code == 0 and out.strip() == "1020"

    def test_empty_graph(self, capsys):
        code, out, _ = run_cli(capsys, "ep", "--g6", "C?", "--p", "5")
        assert code == 0 and out.strip() == "0"

    def test_edge_list_file(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        path.write_text("3\n0 1\n1 2\n")
        code, out, _ = run_cli(capsys, "ep", "--file", str(path), "--p", "2")
        assert code == 0 and out.strip() == "6"

    def test_graph6_lines_file(self, tmp_path, capsys):
        path = tmp_path / "graphs.g6"
        path.write_text("C~\nBw\n")
        code, out, _ = run_cli(capsys, "ep", "--file", str(path), "--p", "2")
        assert code == 0 and out.split() == ["36", "12"]

    def test_parse_failure(self, capsys):
        code, out, err = run_cli(capsys, "ep", "--g6", "C\x01", "--p", "2")
        assert code == 2 and out == ""
        assert err == "degpow: error: graph6 byte outside [63, 126]\n"

    def test_missing_file_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent" / "g.g6")
        code, out, err = run_cli(capsys, "ep", "--file", missing, "--p", "2")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("degpow: error: ") and missing in err

    @pytest.mark.parametrize("p", ["0", "-1"])
    def test_p_below_one_exits_two_before_reading(self, tmp_path, capsys, p):
        missing = str(tmp_path / "nonexistent" / "g.g6")
        code, out, err = run_cli(capsys, "ep", "--file", missing, "--p", p)
        assert code == 2 and out == ""
        assert err == f"degpow: error: --p must be >= 1, got {p}\n"


class TestCheck:
    def test_c4free_friendship(self, capsys):
        _, g6, _ = run_cli(capsys, "construct", "friendship", "7")
        code, out, _ = run_cli(capsys, "check", "c4free", "--g6", g6.strip())
        assert code == 0 and out.strip() == "true"

    def test_min_t_conn_wheel(self, capsys):
        _, g6, _ = run_cli(capsys, "construct", "wheel", "8")
        code, out, _ = run_cli(capsys, "check", "min-t-conn", "--t", "3", "--g6", g6.strip())
        assert code == 0 and out.strip() == "true"

    def test_degeneracy_k5(self, capsys):
        code, out, _ = run_cli(capsys, "check", "degeneracy", "--g6", "D~{")
        assert code == 0 and out.strip() == "4"

    def test_missing_param(self, capsys):
        code, out, err = run_cli(capsys, "check", "min-t-conn", "--g6", "C~")
        assert code == 2 and out == ""
        assert err == "degpow: error: property min-t-conn needs --t\n"

    def test_later_rejected_graph_prints_nothing(self, tmp_path, capsys):
        # C~ alone gives 3; the single vertex @ is rejected, so nothing is printed
        path = tmp_path / "graphs.g6"
        path.write_text("C~\n@\n")
        code, out, err = run_cli(capsys, "check", "edge-connectivity", "--file", str(path))
        assert code == 2 and out == ""
        assert err == "degpow: error: edge connectivity needs n >= 2\n"

    @pytest.mark.parametrize("prop, flag", [
        ("min-t-conn", "t"), ("min-t-edge-conn", "t"),
        ("k-degenerate", "k"), ("max-k-degenerate", "k"),
    ])
    def test_missing_param_reported_before_reading(self, tmp_path, capsys, prop, flag):
        missing = str(tmp_path / "nonexistent" / "g.g6")
        code, out, err = run_cli(capsys, "check", prop, "--file", missing)
        assert code == 2 and out == ""
        assert err == f"degpow: error: property {prop} needs --{flag}\n"

    @pytest.mark.parametrize("prop, flags, expected", [
        ("c4free", (), "false"),
        ("even-cycle-free", (), "false"),
        ("connectivity", (), "3"),
        ("edge-connectivity", (), "3"),
        ("min-t-conn", ("--t", "3"), "true"),
        ("min-t-edge-conn", ("--t", "2"), "false"),
        ("degeneracy", (), "3"),
        ("k-degenerate", ("--k", "2"), "false"),
        ("max-k-degenerate", ("--k", "3"), "true"),
        ("degrees", (), "3 3 3 3"),
    ])
    def test_every_property_on_k4(self, capsys, prop, flags, expected):
        code, out, err = run_cli(capsys, "check", prop, *flags, "--g6", "C~")
        assert code == 0 and err == "" and out == expected + "\n"

    def test_value_error_on_a_graph_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "check", "edge-connectivity", "--g6", "@")
        assert code == 2 and out == ""
        assert err == "degpow: error: edge connectivity needs n >= 2\n"

    def test_false_result_still_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "check", "c4free", "--g6", "C~")
        assert code == 0 and out.strip() == "false"


class TestVerify:
    def test_exit_zero_on_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "polarity", "--q", "5", "--p", "2")
        assert code == 0
        assert "pass value=30" in out

    def test_large_prime_order_is_quick(self, capsys):
        # q = 10^9+7 is prime; it is checked in closed form only
        code, out, _ = run_cli(capsys, "verify", "polarity", "--q", "1000000007", "--p", "2")
        assert code == 0 and out.endswith("1/1 checks passed\n")

    def test_thresholds_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "thresholds", "--pair", "W_vs_K3", "--pmax", "11"
        )
        assert code == 0
        values = [int(line.rsplit("=", 1)[1]) for line in out.splitlines() if "value=" in line]
        assert values == [8, 9, 10, 12, 13, 15, 17, 19, 21, 23]

    def test_json_determinism(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run_cli(
                capsys, "verify", "lemma12", "--n", "6..12", "--p", "2,3",
                "--json", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        payload = json.loads(paths[0].read_text())
        assert payload["format_version"] == 1
        assert payload["started_at"] is None  # omitted for byte-identical runs
        assert all(r["verdict"] == "pass" for r in payload["records"])

    def test_timestamps_opt_in(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        run_cli(capsys, "verify", "polarity", "--q", "2", "--p", "2",
                "--json", str(path), "--timestamps")
        payload = json.loads(path.read_text())
        assert payload["started_at"] is not None

    def test_csv_schema(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        code, _, _ = run_cli(
            capsys, "verify", "thm2", "--n", "4,5", "--p", "2", "--csv", str(path)
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(path.read_text())))
        assert rows[0] == ["suite", "params", "verdict", "value", "witness_g6"]
        assert ["t2i", "n=4;p=2", "pass", "16", ""] in rows

    def test_records_round_trip_through_json(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        run_cli(capsys, "verify", "appendixA", "--p", "12", "--json", str(path))
        payload = json.loads(path.read_text())
        for record in payload["records"]:
            assert set(record) == {"check", "params", "verdict", "value", "witness", "detail"}

    @pytest.mark.parametrize("flag", ["--json", "--csv"])
    def test_unwritable_report_exits_two_before_running(self, tmp_path, capsys, monkeypatch,
                                                        flag):
        monkeypatch.setattr(cli_mod, "run_task", lambda task: pytest.fail("task ran"))
        path = str(tmp_path / "nonexistent" / "r.out")
        code, out, err = run_cli(capsys, "verify", "lemma1", "--n", "7", "--p", "2", flag, path)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("degpow: error: cannot write ")

    def test_failing_record_exits_one_with_witness(self, capsys, monkeypatch):
        from degpow.verify import VerificationRecord

        bad = VerificationRecord(
            check="demo", params={"n": 4}, verdict="fail", witness={"g6": "C~"}
        )
        monkeypatch.setattr(cli_mod, "run_task", lambda task: [bad])
        code, out, _ = run_cli(capsys, "verify", "polarity", "--q", "2", "--p", "2")
        assert code == 1
        assert "witness" in out and "C~" in out

    def test_enumeration_guard(self, capsys, monkeypatch):
        monkeypatch.delenv("DEGPOW_MAX_N", raising=False)
        code, out, err = run_cli(capsys, "verify", "thm1", "--n", "9", "--p", "2")
        assert code == 2 and out == ""
        assert err == ("degpow: error: n=9 exceeds the enumeration guard; "
                       "set DEGPOW_MAX_N=9\n")

    @pytest.mark.parametrize("raw, guard", [
        (None, ENUM_FAST_CAP), ("9", 9), ("99", ENUM_HARD_CAP), ("0", 1),
    ])
    def test_guard_bounds_come_from_enumeration(self, monkeypatch, raw, guard):
        if raw is None:
            monkeypatch.delenv("DEGPOW_MAX_N", raising=False)
        else:
            monkeypatch.setenv("DEGPOW_MAX_N", raw)
        assert _enum_guard() == guard

    def test_guard_lifted_by_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DEGPOW_MAX_N", "9")
        code, out, _ = run_cli(capsys, "verify", "thm1", "--n", "4", "--p", "2")
        assert code == 0

    def test_malformed_range_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "verify", "thm2", "--n", "4..x")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "--n" in err and "4..x" in err

    def test_empty_range_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "verify", "thm2", "--p", "5..2")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "--p" in err and "5..2" in err

    def test_invalid_theorem_task_exits_two_before_running(self, capsys):
        code, out, err = run_cli(capsys, "verify", "thm1", "--n", "4", "--p", "1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "p must be > 1" in err

    @pytest.mark.parametrize("argv, message", [
        (("polarity", "--q", "6", "--p", "2"), "6 is not a prime power"),
        (("appendixA", "--p", "5", "--nmax", "5"), "needs n_max >= 9"),
        (("thresholds", "--pair", "W_vs_K3", "--nmax", "9"), "need n_max >= 2p+4"),
        (("thresholds", "--pmax", "0"), "--pmax must be >= 2, got 0"),
    ], ids=["polarity", "appendixA", "thresholds", "pmax0"])
    def test_invalid_scan_task_exits_two_before_running(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("degpow: error:") and message in err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_two(self, capsys, jobs):
        code, out, err = run_cli(capsys, "verify", "thm2", "--jobs", jobs)
        assert code == 2 and out == ""
        assert err == f"degpow: error: --jobs must be >= 1, got {jobs}\n"

    def test_n10_all_graphs_refused(self, capsys, monkeypatch):
        # all graphs on 10 vertices are 12,005,168 classes; only the C4-free
        # and even-cycle-free searches may run at n=10
        monkeypatch.setenv("DEGPOW_MAX_N", "10")
        code, out, err = run_cli(capsys, "verify", "thm2", "--n", "10")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "n=10" in err

    def test_explicit_values_outside_an_axis_are_dropped(self):
        args = build_parser().parse_args(["verify", "lemma1", "--n", "4..9", "--p", "1..2"])
        assert [kw["n"] for _, kw in _build_tasks(args)] == [7, 9]

    @pytest.mark.parametrize("argv, records", [
        (("thm1", "--n", "5", "--p", "2,2"), ["t1 [n=5;p=2] pass value=32"]),
        (("thm1", "--n", "5,5", "--p", "2"), ["t1 [n=5;p=2] pass value=32"]),
        (("thm4", "--n", "5", "--k", "1,1", "--p", "2"), ["t4 [k=1;n=5;p=2] pass value=20"]),
        (("polarity", "--q", "2,2", "--p", "2"), ["polarity [p=2;q=2] pass value=-12"]),
        (("thm1", "--n", "6,5,6", "--p", "3,2,3"),
         ["t1 [n=6;p=3] pass value=158", "t1 [n=6;p=2] pass value=42",
          "t1 [n=5;p=3] pass value=96", "t1 [n=5;p=2] pass value=32"]),
    ], ids=["p-twice", "n-twice", "k-twice", "q-twice", "first-kept"])
    def test_repeated_values_run_once(self, capsys, monkeypatch, argv, records):
        # a repeated value is kept once, in the order it first appears
        import degpow.verify as verify_mod

        monkeypatch.delenv("DEGPOW_MAX_N", raising=False)
        enumerations = []
        enumerate_graphs = verify_mod.enumerate_graphs

        def counting(n, pred, visit):
            enumerations.append(n)
            return enumerate_graphs(n, pred, visit)

        monkeypatch.setattr(verify_mod, "enumerate_graphs", counting)
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0
        assert out.splitlines() == records + [f"{len(records)}/{len(records)} checks passed"]
        if argv[0] != "polarity":
            assert len(enumerations) == len(set(enumerations))

    def test_theorem_tasks_running_no_check_are_dropped(self, monkeypatch):
        # t4 with k runs at n >= k+1 only; the orders below run nothing
        monkeypatch.delenv("DEGPOW_MAX_N", raising=False)
        args = build_parser().parse_args(["verify", "thm4", "--k", "3"])
        assert [kw["n"] for _, kw in _build_tasks(args)] == [4, 5, 6, 7, 8]

    @pytest.mark.parametrize("argv", sorted(REPORT_DIGESTS))
    def test_report_digests_pinned(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.delenv("DEGPOW_MAX_N", raising=False)
        path = tmp_path / "r.json"
        code, _, _ = run_cli(capsys, "verify", *argv, "--json", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_DIGESTS[argv]

    @pytest.mark.parametrize("suite", [*SUITES, "all-desk"])
    def test_default_grid_is_the_suite_table(self, monkeypatch, suite):
        monkeypatch.delenv("DEGPOW_MAX_N", raising=False)
        tasks = _build_tasks(build_parser().parse_args(["verify", suite]))
        if suite == "all-desk":
            assert tasks == suite_tasks("all-desk")
        else:
            # default orders clamp to the guard of 8
            assert tasks == [(kind, kw) for kind, kw in suite_tasks(suite)
                             if kind != "theorem" or kw["n"] <= 8]

    def test_malformed_env_guard_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("DEGPOW_MAX_N", "abc")
        code, out, err = run_cli(capsys, "verify", "thm1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "DEGPOW_MAX_N" in err and "abc" in err

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "verify", "nosuchsuite")



@pytest.mark.parametrize("argv, max_n", [
    (("verify", "thm1", "--n", "9", "--p", "2"), None),
    (("verify", "thm2", "--n", "10"), None),
    (("verify", "thm2", "--n", "10"), "10"),
    (("verify", "thm1", "--n", "3", "--p", "2"), None),
    (("check", "min-t-conn", "--g6", "C~"), None),
    (("construct", "wheel", "3"), None),
    (("construct", "nosuch", "3"), None),
    (("construct", "star"), None),
    (("ep", "--p", "2"), None),
    (("ep", "--g6", "C\x01", "--p", "2"), None),
    (("ep", "--file", "-", "--p", "2"), None),
    (("check", "degrees", "--file", "-", "--format", "g6"), None),
    (("verify", "thm4", "--k", "9"), None),
    (("verify", "thm4", "--k", "4", "--n", "4"), None),
    (("verify", "thm1", "--q", "3"), None),
    (("verify", "polarity", "--n", "5"), None),
    (("verify", "lemma1", "--pmax", "3"), None),
    (("verify", "thm1", "--pair", "F_vs_K2"), None),
    (("verify", "all-desk", "--n", "5", "--p", "2"), None),
    (("verify", "all-desk", "--nmax", "300"), None),
], ids=["guard", "n10", "n10-max-n-10", "no-task", "missing-t", "wheel3", "no-family",
        "no-size", "no-graph", "bad-g6", "empty-stdin", "empty-stdin-g6", "t4-k-above-n",
        "t4-n-below-k", "thm1-q", "polarity-n", "lemma1-pmax", "thm1-pair", "all-desk-n-p",
        "all-desk-nmax"])
def test_bad_input_exits_two_with_one_line(capsys, monkeypatch, argv, max_n):
    # exit 1 is kept for a failed verification record
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    if max_n is None:
        monkeypatch.delenv("DEGPOW_MAX_N", raising=False)
    else:
        monkeypatch.setenv("DEGPOW_MAX_N", max_n)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("degpow: error: ")


@pytest.mark.parametrize("argv, jobs, workers", [
    (("thm2", "--n", "4..7"), "5000", [4]),
    (("thm2", "--n", "4..7"), "2", [2]),
    (("thm2", "--n", "4..5"), "3", [2]),
    (("thm2", "--n", "4"), "8", []),
    (("thm2", "--n", "4..7"), "1", []),
])
def test_pool_capped_at_task_count(capsys, monkeypatch, argv, jobs, workers):
    built = []

    class RecordingPool:
        """Records max_workers and runs the tasks in this process."""

        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", RecordingPool)
    code, _, _ = run_cli(capsys, "verify", *argv, "--p", "2", "--jobs", jobs)
    assert code == 0 and built == workers
