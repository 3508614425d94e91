from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import sys
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import pytest

import degpow.cli as cli_mod
from degpow.cli import ENUM_FAST_CAP, _build_tasks, _enum_guard, build_parser, main
from degpow.enumeration import ENUM_HARD_CAP
from degpow.families import FamilyId, construct
from degpow.graphs import degree_sequence, from_graph6
from degpow.verify import SUITES, grid_tasks, suite_rows

from helpers import count_generations

# sha256 of `verify ... --json`, pinned from the reports before the theorem
# table replaced the per-theorem code
REPORT_DIGESTS = {
    ("thm1", "--n", "4..8"): "27a6d052df3f665130cfb22386817c271070b97c0d9b6becd86b77143bd43ead",
    ("cor1",): "402e5d84f50bde42dde6a3b8d95e2fc9151bb3f3fa377897fd2fc2801fd5bd21",
    # c1 on the C4-free families of n = 9 and 10, which a pool splits and
    # all-desk does not reach for c1; run with DEGPOW_MAX_N=10 (REPORT_MAX_N)
    ("cor1", "--n", "9..10"): "27d778dd067d47389635f4a0b39b9dff671eec3abe419aa127d5d435167443f3",
    ("thm2", "--n", "4..7"): "3e6490b306241566c5b85d96f1b910d848241349d5bc5349cd062bb421071345",
    ("thm4", "--n", "2..7"): "2aef61a27fe9ec5154d87118c774e36878bbb39b9b70d4c019ba2c5edbba99bf",
    ("lemma1",): "3a81b68aaef0a3aafca067dc74a54ae23e9efd8cdb591ce35f96b94f4119269a",
    ("lemma12",): "fde6b60cf40277eab3b2e3a93d1bb8c13e763b880fb99fe4412cfbf5a07399fb",
    ("thresholds",): "e39be3c80e8e06b06f8d2c907b9d03f255c9c96363324cebe1dbcd44aa0bc990",
    ("appendixA",): "40df5c0271d2eb979922217a0579be76211c4d3cf9355f95be907ff96e36ddd7",
    ("polarity",): "22ddd5217a9144fc11df361b5017bf1963e9c68292eabbb1f27ff86866ccbfe1",
    # 561 records, all passing, byte-identical at --jobs 1 and 2
    ("all-desk",): "383a0696ad9337c2daade78b36fc3b179496330f8050a188e01eb0c7cae27673",
}
# sha256 of the CSV and of stdout of `verify all-desk`, at --jobs 1 and 2
ALL_DESK_CSV_DIGEST = "8a64ebc92300909b136e80974a35289a9c3705ef126b72251e2e098d7db4db57"
ALL_DESK_STDOUT_DIGEST = "2643b190d2a5bbaded3d1767e3899c5dd7fed6732c3e3e852d700660d84e8230"
# the DEGPOW_MAX_N a pinned report needs, where the default guard refuses it
REPORT_MAX_N = {("cor1", "--n", "9..10"): "10"}


def _report_guard(monkeypatch, argv) -> None:
    """Set the enumeration guard a pinned report runs under."""
    if argv in REPORT_MAX_N:
        monkeypatch.setenv("DEGPOW_MAX_N", REPORT_MAX_N[argv])
    else:
        monkeypatch.delenv("DEGPOW_MAX_N", raising=False)


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

    @pytest.mark.parametrize("params, family", [
        (("star", "N"), FamilyId("star")), (("cycle", "N"), FamilyId("cycle")),
        (("friendship", "N"), FamilyId("friendship")),
        (("complete_bipartite", "1", "N"), FamilyId("complete_bipartite", t=1)),
        (("wheel", "N"), FamilyId("wheel")), (("split", "N", "1"), FamilyId("split", k=1)),
    ], ids=["star", "cycle", "friendship", "complete_bipartite", "wheel", "split"])
    def test_order_past_the_cap_refused_before_any_edge(self, capsys, params, family):
        # a million vertices: the edge list alone would hold about 90 MB
        # (a star's) before the vertex cap refused it
        n = 1_000_000
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "construct",
                                     *[str(n) if param == "N" else param for param in params])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err == f"degpow: error: vertex count must be in [1, 64], got {n}\n"
        assert peak < 1 << 20
        with pytest.raises(ValueError, match="^vertex count must be in"):
            construct(family, n)


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

    def test_odd_edge_list_exits_two(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        path.write_text("3\n0 1\n1\n")
        code, out, err = run_cli(capsys, "ep", "--file", str(path), "--p", "2")
        assert code == 2 and out == ""
        assert err == "degpow: error: edge list must contain whitespace-separated pairs\n"

    def test_graph6_lines_file(self, tmp_path, capsys):
        path = tmp_path / "graphs.g6"
        path.write_text("C~\nBw\n")
        code, out, _ = run_cli(capsys, "ep", "--file", str(path), "--p", "2")
        assert code == 0 and out.split() == ["36", "12"]

    def test_value_past_the_digit_limit_printed_whole(self, capsys):
        # the star on 64 vertices at p = P_CAP: 63**1001 + 63 has 1,802
        # digits, past the least int-to-str limit the interpreter takes (640)
        _, g6, _ = run_cli(capsys, "construct", "star", "64")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli(capsys, "ep", "--g6", g6.strip(), "--p", str(cli_mod.P_CAP))
            assert (code, err) == (0, "")
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        with cli_mod._exact_digits():
            assert out == f"{63**1001 + 63}\n"

    def test_format_flag_is_gone(self, capsys):
        # the input tells its format: graph6 bytes are 63-126, never a digit
        code, out, err = run_cli(capsys, "ep", "--g6", "C~", "--p", "2", "--format", "edgelist")
        assert code == 2 and out == ""
        assert err == "degpow: error: unrecognized arguments: --format edgelist\n"

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

    @pytest.mark.parametrize("p", [cli_mod.P_CAP + 1, 99999999999999999999])
    def test_p_above_cap_exits_two_before_reading(self, tmp_path, capsys, p):
        missing = str(tmp_path / "nonexistent" / "g.g6")
        code, out, err = run_cli(capsys, "ep", "--file", missing, "--p", str(p))
        assert code == 2 and out == ""
        assert err == f"degpow: error: exponents stop at p={cli_mod.P_CAP}; got p={p}\n"


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
        monkeypatch.setattr(cli_mod, "run_grid", lambda *args: pytest.fail("task ran"))
        path = str(tmp_path / "nonexistent" / "r.out")
        code, out, err = run_cli(capsys, "verify", "lemma1", "--n", "7", "--p", "2", flag, path)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("degpow: error: cannot write ")

    @pytest.mark.parametrize("kept, bad", [("--json", "--csv"), ("--csv", "--json")])
    @pytest.mark.parametrize("kept_first", [True, False])
    def test_refused_run_leaves_existing_reports_intact(self, tmp_path, capsys, monkeypatch,
                                                        kept, bad, kept_first):
        monkeypatch.setattr(cli_mod, "run_grid", lambda *args: pytest.fail("task ran"))
        keep = tmp_path / "keep.out"
        keep.write_bytes(b"an earlier report\n")
        flags = [[kept, str(keep)], [bad, str(tmp_path / "nonexistent" / "r.out")]]
        argv = [flag for pair in (flags if kept_first else flags[::-1]) for flag in pair]
        code, out, err = run_cli(capsys, "verify", "lemma1", "--n", "7", "--p", "2", *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("degpow: error: cannot write ")
        assert keep.read_bytes() == b"an earlier report\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("flag", ["--json", "--csv"])
    def test_failed_report_write_exits_two(self, capsys, flag):
        # the open succeeds and the write fails; exit 1 is kept for a failed record
        code, out, err = run_cli(capsys, "verify", "lemma1", "--n", "7", "--p", "2",
                                 flag, "/dev/full")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("degpow: error: cannot write /dev/full: ")

    def test_failing_record_exits_one_with_witness(self, capsys, monkeypatch):
        from degpow.verify import VerificationRecord

        bad = VerificationRecord(
            check="demo", params={"n": 4}, verdict="fail", witness={"g6": "C~"}
        )
        monkeypatch.setattr(cli_mod, "run_grid", lambda *args: [bad])
        code, out, _ = run_cli(capsys, "verify", "polarity", "--q", "2", "--p", "2")
        assert code == 1
        assert "witness" in out and "C~" in out

    def test_enumeration_guard(self, capsys, monkeypatch):
        monkeypatch.delenv("DEGPOW_MAX_N", raising=False)
        code, out, err = run_cli(capsys, "verify", "thm1", "--n", "9", "--p", "2")
        assert code == 2 and out == ""
        assert err == ("degpow: error: n=9 exceeds the enumeration guard; "
                       "set DEGPOW_MAX_N=9\n")
        # a range is refused from its bounds
        monkeypatch.setattr(cli_mod, "grid_tasks", lambda row: pytest.fail("tasks built"))
        code, out, err = run_cli(capsys, "verify", "thm1", "--n", "4..1000000")
        assert code == 2 and out == "" and err.startswith("degpow: error: n=9 exceeds")

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

    def test_range_flag_is_never_materialised(self):
        # the guard and the caps read a range's bounds; a list of its values
        # would cost memory in proportion to the range typed
        assert cli_mod._parse_range("n", "4..9") == range(4, 10)
        assert isinstance(cli_mod._parse_range("p", "2..2"), range)

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

    @pytest.mark.parametrize("argv, message", [
        (("lemma1", "--n", "7..5001", "--p", "2"), "lemma scans stop at n=4001; got n=4003"),
        (("lemma12", "--n", "6,4002"), "lemma scans stop at n=4001; got n=4002"),
        # refused from its bounds, never materialised
        (("lemma1", "--n", "7..1000000001", "--p", "2"), "lemma scans stop at n=4001; got n=4003"),
        (("thresholds", "--pair", "W_vs_K3", "--nmax", "9001"),
         "threshold scans stop at n_max=9000; got n_max=9001"),
        (("appendixA", "--p", "12", "--nmax", "16001"),
         "appendixA scans stop at n_max=16000; got n_max=16001"),
        # a p axis is refused by its length, before any task or p tuple
        (("lemma1", "--n", "7", "--p", "2..1000000001"),
         "--p takes at most 1000 values of p; got 1000000000"),
        (("thm1", "--n", "4", "--p", "2..1000000001"),
         "--p takes at most 1000 values of p; got 1000000000"),
        (("thresholds", "--pmax", "1000000000"),
         "--pmax takes at most 1000 values of p; got 999999999"),
        # an exponent is refused by its value: its records' digits grow with it
        (("lemma1", "--n", "7", "--p", "300000"),
         "exponents stop at p=285714 at n=7; got p=300000"),
        (("lemma1", "--n", "7,4001", "--p", "500"),
         "exponents stop at p=499 at n=4001; got p=500"),
        (("thm1", "--n", "4", "--p", "2,1002"), "exponents stop at p=1001; got p=1002"),
        (("polarity", "--q", "2", "--p", "1000..1010"),
         "exponents stop at p=1001; got p=1002"),
        # a row is refused by its task count, the product of its axes' sizes
        (("lemma1", "--n", "7..401", "--p", "2..1000"),
         "a lemma row runs at most 1000 tasks; got 197802"),
        (("polarity", "--p", "2..1001"), "a polarity row runs at most 1000 tasks; got 8000"),
    ], ids=["lemma1", "lemma12", "lemma1-huge", "thresholds", "appendixA", "lemma1-p-huge",
            "thm1-p-huge", "pmax-huge", "lemma1-p-large", "lemma1-p-large-at-n4001", "thm1-p-large",
            "polarity-p-large", "lemma1-tasks", "polarity-tasks"])
    def test_scan_above_its_cap_exits_two_before_running(self, capsys, monkeypatch, argv,
                                                         message):
        # caps are checked on the axis bounds, before any task is built
        monkeypatch.setattr(cli_mod, "grid_tasks", lambda row: pytest.fail("tasks built"))
        monkeypatch.setattr(cli_mod, "validate_task", lambda task: pytest.fail("validated"))
        monkeypatch.setattr(cli_mod, "run_grid", lambda *args: pytest.fail("task ran"))
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err == f"degpow: error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ("lemma1", "--n", "4001", "--p", "2"), ("lemma12", "--n", "4000", "--p", "2"),
        ("thresholds", "--nmax", "9000"), ("appendixA", "--nmax", "16000"),
        ("lemma1", "--n", "7", "--p", "2..1001"), ("thm1", "--n", "4", "--p", "2..1001"),
    ], ids=["lemma1", "lemma12", "thresholds", "appendixA", "lemma1-p-axis", "thm1-p-axis"])
    def test_scan_at_its_cap_admitted(self, argv):
        assert _build_tasks(build_parser().parse_args(["verify", *argv]))

    @pytest.mark.parametrize("argv, message", [
        (("thm4", "--n", "8", "--k", "1..1000000"),
         "--k takes at most 1000 values of k; got 1000000"),
        (("polarity", "--q", "2..1000001", "--p", "2"),
         "--q takes at most 1000 values of q; got 1000000"),
    ], ids=["k", "q"])
    def test_axis_past_its_cap_refused_in_bounded_time_and_memory(self, capsys, monkeypatch,
                                                                  argv, message):
        # like the p axis, refused from the parsed range's length: no k
        # tuple, no q task
        monkeypatch.setattr(cli_mod, "grid_tasks", lambda row: pytest.fail("tasks built"))
        monkeypatch.setattr(cli_mod, "run_grid", lambda *args: pytest.fail("task ran"))
        tracemalloc.start()
        started = time.perf_counter()
        try:
            code, out, err = run_cli(capsys, "verify", *argv)
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (2, "", f"degpow: error: {message}\n")
        assert elapsed < 0.5 and peak < 5 << 20

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

    @pytest.mark.parametrize("argv, records, families", [
        (("thm1", "--n", "5", "--p", "2,2"), ["t1 [n=5;p=2] pass value=32"], [(5, True)]),
        (("thm1", "--n", "5,5", "--p", "2"), ["t1 [n=5;p=2] pass value=32"], [(5, True)]),
        (("thm4", "--n", "5", "--k", "1,1", "--p", "2"), ["t4 [k=1;n=5;p=2] pass value=20"],
         [(5, False)]),
        (("polarity", "--q", "2,2", "--p", "2"), ["polarity [p=2;q=2] pass value=-12"], []),
        (("thm1", "--n", "6,5,6", "--p", "3,2,3"),
         ["t1 [n=6;p=3] pass value=158", "t1 [n=6;p=2] pass value=42",
          "t1 [n=5;p=3] pass value=96", "t1 [n=5;p=2] pass value=32"], [(6, True), (5, True)]),
    ], ids=["p-twice", "n-twice", "k-twice", "q-twice", "first-kept"])
    def test_repeated_values_run_once(self, capsys, monkeypatch, argv, records, families):
        # a repeated value is kept once, in the order it first appears, and
        # each (n, family) is generated once, with the orders below it
        monkeypatch.delenv("DEGPOW_MAX_N", raising=False)
        generated = count_generations(monkeypatch)
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0
        assert out.splitlines() == records + [f"{len(records)}/{len(records)} checks passed"]
        assert [key for key in generated if key in families] == families
        assert sorted(generated) == sorted({(k, c4_free) for n, c4_free in families
                                            for k in range(1, n + 1)})

    def test_theorem_tasks_running_no_check_are_dropped(self, monkeypatch):
        # t4 with k runs at n >= k+1 only; the orders below run nothing
        monkeypatch.delenv("DEGPOW_MAX_N", raising=False)
        args = build_parser().parse_args(["verify", "thm4", "--k", "3"])
        assert [kw["n"] for _, kw in _build_tasks(args)] == [4, 5, 6, 7, 8]

    @pytest.mark.parametrize("argv", sorted(REPORT_DIGESTS), ids=" ".join)
    def test_report_digests_pinned(self, tmp_path, capsys, monkeypatch, argv):
        _report_guard(monkeypatch, argv)
        path = tmp_path / "r.json"
        code, _, _ = run_cli(capsys, "verify", *argv, "--json", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_DIGESTS[argv]

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="the interpreter has no int-to-str digit limit")
    def test_value_past_the_digit_limit_reported_whole(self, tmp_path, capsys):
        # Lemma 1 at n=61, p=30000: norm1 - norm2 has 53,345 digits, past the
        # interpreter's default int-to-str limit of 4300
        p = 30000
        value = 60**p + 60 * 2**p - 3 * 31**p - 30**p - 57
        limit = sys.get_int_max_str_digits()
        json_path, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
        code, out, err = run_cli(capsys, "verify", "lemma1", "--n", "61", "--p", str(p),
                                 "--json", str(json_path), "--csv", str(csv_path))
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            text = str(value)
            records = json.loads(json_path.read_text())["records"]
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(text) == 53345
        assert out == f"lemma1 [n=61;p=30000] pass value={text}\n1/1 checks passed\n"
        assert [(r["verdict"], r["value"]) for r in records] == [("pass", value)]
        assert list(csv.reader(io.StringIO(csv_path.read_text())))[1:] == [
            ["lemma1", "n=61;p=30000", "pass", text, ""]]

    def test_all_desk_csv_and_stdout_pinned(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        code, out, _ = run_cli(capsys, "verify", "all-desk", "--csv", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ALL_DESK_CSV_DIGEST
        assert hashlib.sha256(out.encode()).hexdigest() == ALL_DESK_STDOUT_DIGEST

    @pytest.mark.parametrize("suite", [*SUITES, "all-desk"])
    def test_default_grid_is_the_suite_table(self, monkeypatch, suite):
        monkeypatch.delenv("DEGPOW_MAX_N", raising=False)
        tasks = _build_tasks(build_parser().parse_args(["verify", suite]))
        grid = [task for row in suite_rows(suite) for task in grid_tasks(row)]
        if suite == "all-desk":
            assert tasks == grid
        else:
            # default orders clamp to the guard of 8
            assert tasks == [(kind, kw) for kind, kw in grid if kind != "theorem" or kw["n"] <= 8]

    def test_malformed_env_guard_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("DEGPOW_MAX_N", "abc")
        code, out, err = run_cli(capsys, "verify", "thm1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "DEGPOW_MAX_N" in err and "abc" in err

    def test_unknown_suite_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "nosuchsuite")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("degpow: error: argument suite: ")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: degpow verify")



# a range or bound past sys.maxsize, which len() refuses
HUGE = "99999999999999999999"
HUGE_RANGES = [
    ("verify", "thm3", "--n", f"8..{HUGE}"),
    ("verify", "thm1", "--p", f"2..{HUGE}"),
    ("verify", "lemma1", "--n", f"10..{HUGE}"),
    ("verify", "polarity", "--q", f"2..{HUGE}"),
    ("verify", "thm4", "--n", "8", "--k", f"1..{HUGE}"),
    ("verify", "thresholds", "--pmax", HUGE, "--nmax", "7"),
]


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
    (("check", "degrees", "--file", "-"), None),
    (("verify", "thm4", "--k", "9"), None),
    (("verify", "thm4", "--k", "4", "--n", "4"), None),
    (("verify", "thm1", "--q", "3"), None),
    (("verify", "polarity", "--n", "5"), None),
    (("verify", "lemma1", "--pmax", "3"), None),
    (("verify", "thm1", "--pair", "F_vs_K2"), None),
    (("verify", "all-desk", "--n", "5", "--p", "2"), None),
    (("verify", "all-desk", "--nmax", "300"), None),
    (("verify", "thresholds", "--p", "3", "--pmax", "5"), None),
    (("verify", "thm1", "--jobs", "x"), None),
    (("ep", "--g6", "C~", "--p", "x"), None),
    (("verify", "nosuchsuite"), None),
    (("check", "nosuch", "--g6", "C~"), None),
    ((), None),
    (("verify", "thm1", "--n", "-3..5"), None),
    *[(argv, None) for argv in HUGE_RANGES],
], ids=["guard", "n10", "n10-max-n-10", "no-task", "missing-t", "wheel3", "no-family",
        "no-size", "no-graph", "bad-g6", "empty-stdin", "empty-stdin-check", "t4-k-above-n",
        "t4-n-below-k", "thm1-q", "polarity-n", "lemma1-pmax", "thm1-pair", "all-desk-n-p",
        "all-desk-nmax", "p-with-pmax", "jobs-not-int", "p-not-int", "no-suite",
        "no-property", "no-command", "negative-range", "huge-n-thm3", "huge-p",
        "huge-n-lemma1", "huge-q", "huge-k", "huge-pmax"])
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
    (("thm2", "--n", "4..7", "--p", "2"), "5000", [4]),
    (("thm2", "--n", "4..7", "--p", "2"), "2", [2]),
    (("thm2", "--n", "4..5", "--p", "2"), "3", []),
    (("thm2", "--n", "4", "--p", "2"), "8", []),
    (("thm2", "--n", "4..7", "--p", "2"), "1", []),
    (("thm2", "--n", "7", "--p", "2"), "2", [2]),
    (("lemma1", "--p", "2"), "5000", [4]),
    (("thresholds",), "2", [2]),
    (("appendixA",), "3", [3]),
])
def test_pool_capped_at_task_count(capsys, monkeypatch, argv, jobs, workers):
    # workers = min(--jobs, CPUs the process may run on, units), with 4
    # CPUs here, and no pool for fewer than 2 units.  thm2 --n 4..7 is 8
    # units (n = 7 split in 8; n = 4, 5, 6 are read in this process), --n
    # 4..5 and --n 4 none, and the one task at n = 7 eight; each of the 28
    # lemma1 tasks at p = 2, the 17 thresholds tasks and the 13 appendixA
    # tasks is a unit.  No process starts.
    built = []

    class RecordingPool:
        """Records max_workers and runs the units in this process."""

        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    code, _, _ = run_cli(capsys, "verify", *argv, "--jobs", jobs)
    assert code == 0 and built == workers


# the pinned reports that read every family in this process at any --jobs
UNSPLIT = {("thm1", "--n", "4..8"), ("cor1",)}


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("argv", [("thm1", "--n", "4..8"), ("cor1",), ("cor1", "--n", "9..10"),
                                  ("thm2", "--n", "4..7"), ("thm4", "--n", "2..7")], ids=" ".join)
def test_report_digests_pinned_with_a_process_pool(tmp_path, capsys, monkeypatch, argv, jobs):
    # a real pool of --jobs workers, whatever the CPUs here: an odd count
    # deals the units to the workers in another schedule.  The C4-free
    # families below n = 9 are never split, so thm1 --n 4..8 and cor1 start
    # no pool: this process reads them
    _report_guard(monkeypatch, argv)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    built = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", RecordingPool)
    path = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "verify", *argv, "--jobs", str(jobs), "--json", str(path))
    assert code == 0 and built == ([] if argv in UNSPLIT else [jobs])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_DIGESTS[argv]
