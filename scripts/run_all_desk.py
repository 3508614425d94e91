#!/usr/bin/env python3
"""Run the complete desk-scale verification grid and write reports.

This is the CI entry point: every theorem brute force (including the slow
C4-free search at n=9), the comparison-tuple scans, the threshold tables,
the appendix inequalities, and the polarity identities.  Expect about
15 s of runtime; pass --jobs to spread grid points over processes.

Usage:
    python scripts/run_all_desk.py [--jobs N] [--out-dir reports]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from degpow.cli import main as degpow_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out-dir", default="reports")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "all_desk.json"
    csv_path = out_dir / "all_desk.csv"
    code = degpow_main([
        "verify", "all-desk",
        "--jobs", str(args.jobs),
        "--json", str(json_path),
        "--csv", str(csv_path),
    ])
    print(f"reports: {json_path} {csv_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
