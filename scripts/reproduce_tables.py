#!/usr/bin/env python3
"""Print the computer-verified tables and identities in a readable layout.

Covers the two crossover-threshold tables (wheel vs K_{3,n-3} for
p = 2..11, friendship vs K_{2,n-2} for p = 2..8), the small-order extremal
values with their witnesses, and the polarity-graph identities.
Everything here is recomputed from scratch on each run.
"""

from __future__ import annotations

from degpow.enumeration import extremal_ep
from degpow.families import FamilyId, ep_closed_form
from degpow.verify import SUITES, THEOREMS, THRESHOLD_PAIRS, polarity_check, threshold_scan

TABLE_HEADINGS = {
    "W_vs_K3": "Smallest n0 with e_p(W_n) < e_p(K_{3,n-3}) for all n in",
    "F_vs_K2": "Smallest odd n0 with e_p(F_n) < e_p(K_{2,n-2}) for all odd n in",
}


def main() -> None:
    for row in SUITES["thresholds"]:
        pair = row.fixed["pair"]
        n_max = THRESHOLD_PAIRS[pair].n_max
        print(f"{TABLE_HEADINGS[pair]} [n0, {n_max}]:")
        print("  p :", *[f"{p:4d}" for p in row.axes["p"]])
        print("  n0:", *[f"{threshold_scan(pair, p, n_max):4d}" for p in row.axes["p"]])
        print()

    print("Extremal e_2 over C4-free graphs with minimum degree 1 and")
    print("at most floor(3(n-1)/2) edges (witnesses as graph6):")
    for n in range(4, 9):
        rep = extremal_ep(n, 2, THEOREMS["t1"].predicate(n, None))
        friendship_value = ep_closed_form(FamilyId("friendship"), n, 2)
        marker = "= e_2(F_n)" if rep.max_value == friendship_value else "!!"
        print(f"  n={n}: max={rep.max_value:4d} {marker}  witnesses={list(rep.witnesses)}")
    print()

    print("Polarity graph identities (difference = e_2(PG) - e_2(F_n)):")
    for q in SUITES["polarity"][0].axes["q"]:
        rec = polarity_check(q, 2)
        e2 = rec.detail["e2_pg"]
        built = "constructed" if rec.detail["constructed"] else "closed form"
        print(f"  q={q:2d}: n={rec.detail['n']:3d}  e_2(PG)={e2:6d}"
              f"  diff={rec.value:5d} = q(q+1)(q-4)  [{built}, {rec.verdict}]")


if __name__ == "__main__":
    main()
