#!/usr/bin/env python3
"""Check the largest generated families against their pinned class sets,
their class counts against Polya's theorem, and the n = 9 theorem reports
read from them against their pinned JSON.

    python scripts/check_n9_classes.py

Generates every isomorphism class of graphs on 9 vertices
(enumeration._family(9, False)) and every C4-free class on 10 vertices
(enumeration._family(10, True)), computes each class's min-lex canonical
form and compares the class count and the sha256 of the concatenated
sorted forms with the pinned values, in the format of
tests/test_enumeration.py's PINNED_CLASS_SETS.  Each order is grown from
the one below it, so these pins cover the classes the recursion chains
through.  The n = 9 all-graph classes are counted per edge count against
g(9, m) by Polya's theorem (tests/helpers.py's graph_counts), and the
12,005,168 classes on 10 vertices that check_enumerable's refusal and the
README state against the sum of g(10, m).  The labelling searches and
_refine calls that grow the n = 9 all-graph family from the order below
are printed beside its pins.  Then it runs `verify thm2 --n 9`,
`thm3 --n 9` and `thm4 --n 9` in this process under DEGPOW_MAX_N=9 and
compares the sha256 of each JSON report with its pin; no other check pins
them.  A grid never reads the n = 9 all-graph family from the class
cache: each report grows it again, unit by unit, from the cached n = 8
family, which adds about 10-15 s.  Last, `verify thm3 --n 9 --p 2
--jobs 1` runs in a fresh interpreter, whose peak RSS must stay under
MEMORY_MB: this process holds the pinned families, so it cannot see how
much the grid holds.  Exits 1 on a mismatch.  The run takes a few
minutes; the forms cost about 0.5 ms per class at n = 9 and 1.6 ms at
n = 10.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import degpow
from degpow import enumeration
from degpow.cli import main as degpow_main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from helpers import graph_counts  # noqa: E402

# (n, c4_free) -> (class count, sha256 of the sorted min-lex forms); all
# graphs on 9 vertices are OEIS A000088.  Both were taken from the
# generator that grew each order from the empty graph.
PINNED = {
    (9, False): (274668, "9ab6b62f36470465e9ed6c8c578423755768549a9e0b63f6b83ec4213759f84c"),
    (10, True): (5069, "00efb706f4e6b9923b0238aba594f6f613f67ee74f3f607823823a075f73b958"),
}
# suite -> sha256 of `verify SUITE --n 9 --json PATH` under DEGPOW_MAX_N=9,
# taken from the reports before SearchPredicate's bounds became one table
REPORTS = {
    "thm2": "075fb8eab608e75c2b483c3ddba475db1e5a13eb0809caca0f274273899e6875",
    "thm3": "a265679a299a4ef0451a3fead46c881de519f8876512e93e4a3dc979cd55f583",
    "thm4": "647f35e47e24fce1bcb3a895848ad1a027946c6e4cba9041ef4881f4bbc2b871",
}

# the most a fresh `verify MEMORY_ARGV` may hold, in MB of peak RSS: the grid
# grows the n = 9 family unit by unit and keeps none of it (32 MB on a
# 2-vCPU VM; 133 MB with the family read whole from the class cache)
MEMORY_MB = 64
MEMORY_ARGV = ["verify", "thm3", "--n", "9", "--p", "2", "--jobs", "1"]


def check_reports() -> int:
    """Run each pinned n = 9 report and return the number that differ."""
    wrong = 0
    os.environ["DEGPOW_MAX_N"] = "9"
    with tempfile.TemporaryDirectory() as tmp:
        for suite, pinned in REPORTS.items():
            path = os.path.join(tmp, f"{suite}.json")
            out = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = degpow_main(["verify", suite, "--n", "9", "--json", path])
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            summary = out.getvalue().splitlines()[-1]
            print(f"verify {suite} --n 9: {summary}, exit {code}, sha256 {digest}, "
                  f"{time.perf_counter() - start:.1f} s")
            if code != 0 or digest != pinned:
                print(f"mismatch: verify {suite} --n 9 expected exit 0 and sha256 {pinned}",
                      file=sys.stderr)
                wrong += 1
    return wrong


def check_memory() -> int:
    """Run MEMORY_ARGV in a fresh interpreter under DEGPOW_MAX_N=9 and
    return 1 unless it exits 0 with a peak RSS of at most MEMORY_MB.  The
    peak is the child's VmHWM (Linux): its ru_maxrss would also count the
    pages of this process it was forked from."""
    script = ("from degpow.cli import main\n"
              f"code = main({MEMORY_ARGV!r})\n"
              "print(next(line.split()[1] for line in open('/proc/self/status')\n"
              "           if line.startswith('VmHWM:')))\n"
              "raise SystemExit(code)")
    env = dict(os.environ, DEGPOW_MAX_N="9", PYTHONPATH=str(Path(degpow.__file__).parents[1]))
    start = time.perf_counter()
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    peak_mb = int(run.stdout.split()[-1]) / 1024 if run.returncode == 0 else None
    print(f"{' '.join(MEMORY_ARGV)} in a fresh process: exit {run.returncode}, peak RSS "
          f"{peak_mb and round(peak_mb, 1)} MB, {time.perf_counter() - start:.1f} s")
    if peak_mb is None or peak_mb > MEMORY_MB:
        print(f"mismatch: {' '.join(MEMORY_ARGV)} must exit 0 within {MEMORY_MB} MB of peak RSS"
              f"\n{run.stderr}", file=sys.stderr)
        return 1
    return 0


def counted_family(n: int, c4_free: bool) -> tuple[tuple, Counter]:
    """The family, grown from the order below (generated first), and the
    labelling searches and _refine calls that growing it took."""
    enumeration._family(n - 1, c4_free)
    counter: Counter = Counter()
    originals = {name: getattr(enumeration, name) for name in ("_label_search", "_refine")}

    def counting(name):
        def call(*args):
            counter[name] += 1
            return originals[name](*args)
        return call

    for name in originals:
        setattr(enumeration, name, counting(name))
    try:
        return enumeration._family(n, c4_free), counter
    finally:
        for name, original in originals.items():
            setattr(enumeration, name, original)


def check_counts(family: tuple) -> int:
    """Compare the n = 9 classes per edge count, and the n = 10 total the
    refusal message and README state, with Polya's counts; return the
    number that differ."""
    wrong = 0
    per_edge_count = Counter(g.edge_count() for g in family)
    expected = dict(enumerate(graph_counts(9)))
    print(f"n = 9, all graphs, classes per edge count by Polya's theorem: "
          f"{'match' if per_edge_count == expected else 'differ'}")
    if per_edge_count != expected:
        print(f"mismatch: n = 9 classes per edge count {dict(sorted(per_edge_count.items()))}, "
              f"expected {expected}", file=sys.stderr)
        wrong += 1
    stated = f"{sum(graph_counts(10)):,}"
    try:
        enumeration.check_enumerable(10, enumeration.SearchPredicate())
        refusal = ""
    except ValueError as error:
        refusal = str(error)
    readme = " ".join((ROOT / "README.md").read_text().split())
    print(f"n = 10, all graphs: {stated} classes by Polya's theorem")
    if stated not in refusal or f"{stated} classes" not in readme:
        print(f"mismatch: check_enumerable's refusal and README must state {stated} classes",
              file=sys.stderr)
        wrong += 1
    return wrong


def main() -> int:
    wrong = 0
    for (n, c4_free), (count, pinned) in PINNED.items():
        start = time.perf_counter()
        family, work = counted_family(n, c4_free)
        generated = time.perf_counter()
        forms = sorted(enumeration.canonical_form(g) for g in family)
        digest = hashlib.sha256(b"".join(forms)).hexdigest()
        distinct = len(set(forms))
        name = f"n = {n}, {'C4-free' if c4_free else 'all graphs'}"
        print(f"{name}: classes {len(family)}, distinct forms {distinct}, sha256 {digest}")
        print(f"grown from the order below: {work['_label_search']} labelling searches, "
              f"{work['_refine']} _refine calls")
        print(f"generation {generated - start:.1f} s, forms {time.perf_counter() - generated:.1f} s")
        if len(family) != count or distinct != count or digest != pinned:
            print(f"mismatch: {name} expected {count} classes with sha256 {pinned}",
                  file=sys.stderr)
            wrong += 1
        if (n, c4_free) == (9, False):
            wrong += check_counts(family)
    wrong += check_reports()
    wrong += check_memory()
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
