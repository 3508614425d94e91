#!/usr/bin/env python3
"""Check the all-graph family on 9 vertices against its pinned class set.

    python scripts/check_n9_classes.py

Generates every isomorphism class of graphs on 9 vertices
(enumeration._family(9, False)), computes each class's min-lex canonical
form and compares the class count (274,668, OEIS A000088) and the sha256
of the concatenated sorted forms with the pinned values, in the format of
tests/test_enumeration.py's PINNED_CLASS_SETS.  Exits 1 on a mismatch.
The run takes a few minutes; the forms cost about 0.5 ms per class.
"""

from __future__ import annotations

import hashlib
import sys
import time

from degpow import enumeration

COUNT = 274668
DIGEST = "9ab6b62f36470465e9ed6c8c578423755768549a9e0b63f6b83ec4213759f84c"


def main() -> int:
    start = time.perf_counter()
    family = enumeration._family(9, False)
    generated = time.perf_counter()
    forms = sorted(enumeration.canonical_form(g) for g in family)
    digest = hashlib.sha256(b"".join(forms)).hexdigest()
    distinct = len(set(forms))
    print(f"classes {len(family)}, distinct forms {distinct}, sha256 {digest}")
    print(f"generation {generated - start:.1f} s, forms {time.perf_counter() - generated:.1f} s")
    if len(family) != COUNT or distinct != COUNT or digest != DIGEST:
        print(f"mismatch: expected {COUNT} classes with sha256 {DIGEST}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
