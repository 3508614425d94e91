"""The benchmark's fixed verification workloads and their expected reports.

Every workload is exhaustive: its inputs are the verification grid below,
so the benchmark's seed does not change them.  The grids are the desk-scale
suites scaled down one order (all graphs at n=7 instead of n=8, pruned
searches up to n=8 instead of n=9) so that one fresh-interpreter pass takes
a few seconds and each run can take the median of several passes.

A report digest covers each record's check, params, verdict, value and
witness, plus the detail fields the records carried when the digests were
taken; detail fields added later are left out, so new counters in a record
do not read as wrong answers.
"""

from __future__ import annotations

import hashlib
import json

# name -> how it runs, the grid, expected record count, report digest;
# BENCHMARK.json says why each workload is there
WORKLOADS: dict[str, dict] = {
    "allgraphs-n7": {
        "mode": "tasks",
        "tasks": [
            ("theorem", {"thm": "t2", "n": 7, "p_values": (2, 3, 4, 5)}),
            ("theorem", {"thm": "t4", "n": 7, "p_values": (2, 3), "k_values": (1, 2, 3)}),
        ],
        "records": 14,
        "digest": "3c2276fcebedc3701c25e1a779709fc3ef57388109a214c30baa474b9b571f9c",
    },
    "pruned-n8": {
        "mode": "tasks",
        "tasks": [("theorem", {"thm": "t1", "n": n, "p_values": (2, 3)}) for n in range(4, 9)]
        + [("theorem", {"thm": "c1", "n": n, "p_values": (2, 3)}) for n in range(4, 9)],
        "records": 20,
        "digest": "b0521a4df66ddfc2b5bdbdd9adb15227a029623fba80efbeed3d42f759d54e30",
    },
    "cli-j2": {
        "mode": "cli",
        "argv": ["verify", "thm2", "--n", "4..7", "--jobs", "2"],
        "jobs": 2,
        "records": 32,
        "digest": "faef229dba4f640a93fadda6980ac02b1d9be1bbfa4ea6f040ee538d311954d8",
    },
}

_RECORD_KEYS = ("check", "params", "verdict", "value", "witness")
_DETAIL_KEYS = frozenset({
    "predicate", "graphs_examined", "expected_max", "expected_witnesses",
    "found_witnesses", "max_edges_seen", "edge_cap", "min_degree_filter_agrees",
})


def report_digest(records: list[dict]) -> str:
    """sha256 of the records as JSON, restricted to the pinned fields."""
    pinned = []
    for rec in records:
        row = {key: rec.get(key) for key in _RECORD_KEYS}
        row["detail"] = {k: v for k, v in rec.get("detail", {}).items() if k in _DETAIL_KEYS}
        pinned.append(row)
    blob = json.dumps(pinned, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
