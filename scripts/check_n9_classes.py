#!/usr/bin/env python3
"""Check the largest generated families against their pinned class sets.

    python scripts/check_n9_classes.py

Generates every isomorphism class of graphs on 9 vertices
(enumeration._family(9, False)) and every C4-free class on 10 vertices
(enumeration._family(10, True)), computes each class's min-lex canonical
form and compares the class count and the sha256 of the concatenated
sorted forms with the pinned values, in the format of
tests/test_enumeration.py's PINNED_CLASS_SETS.  Each order is grown from
the one below it, so these pins cover the classes the recursion chains
through.  Exits 1 on a mismatch.  The run takes a few minutes; the forms
cost about 0.5 ms per class at n = 9 and 1.6 ms at n = 10.
"""

from __future__ import annotations

import hashlib
import sys
import time

from degpow import enumeration

# (n, c4_free) -> (class count, sha256 of the sorted min-lex forms); all
# graphs on 9 vertices are OEIS A000088.  Both were taken from the
# generator that grew each order from the empty graph.
PINNED = {
    (9, False): (274668, "9ab6b62f36470465e9ed6c8c578423755768549a9e0b63f6b83ec4213759f84c"),
    (10, True): (5069, "00efb706f4e6b9923b0238aba594f6f613f67ee74f3f607823823a075f73b958"),
}


def main() -> int:
    wrong = 0
    for (n, c4_free), (count, pinned) in PINNED.items():
        start = time.perf_counter()
        family = enumeration._family(n, c4_free)
        generated = time.perf_counter()
        forms = sorted(enumeration.canonical_form(g) for g in family)
        digest = hashlib.sha256(b"".join(forms)).hexdigest()
        distinct = len(set(forms))
        name = f"n = {n}, {'C4-free' if c4_free else 'all graphs'}"
        print(f"{name}: classes {len(family)}, distinct forms {distinct}, sha256 {digest}")
        print(f"generation {generated - start:.1f} s, forms {time.perf_counter() - generated:.1f} s")
        if len(family) != count or distinct != count or digest != pinned:
            print(f"mismatch: {name} expected {count} classes with sha256 {pinned}",
                  file=sys.stderr)
            wrong += 1
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
