"""Named graph families, their exact degree-power closed forms, and GF(q).

Labelings are fixed for determinism: stars and friendship graphs put the
center at vertex 0, wheels put the hub last, the split graph's clique comes
first.  The polarity graph's vertices are the normalized projective points
of GF(q)^3 in lexicographic order, adjacent when their dot product vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .graphs import Graph, new_graph

POLARITY_ORDERS = (2, 3, 4, 5, 7)  # q^2+q+1 <= 64


def star(n: int) -> Graph:
    if n < 2:
        raise ValueError("star needs n >= 2")
    return new_graph(n, [(0, v) for v in range(1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return new_graph(n, [(v, (v + 1) % n) for v in range(n)])


def friendship(n: int) -> Graph:
    """Star plus a maximum matching on the leaves: (1,2), (3,4), ...

    For even n the last leaf n-1 stays unmatched.  Edge count is
    floor(3(n-1)/2) and there are no even cycles.
    """
    if n < 2:
        raise ValueError("friendship graph needs n >= 2")
    edges = [(0, v) for v in range(1, n)]
    edges += [(v, v + 1) for v in range(1, n - 1, 2)]
    return new_graph(n, edges)


def complete_bipartite(t: int, n: int) -> Graph:
    if not 1 <= t < n:
        raise ValueError("complete bipartite needs 1 <= t < n")
    return new_graph(n, [(u, v) for u in range(t) for v in range(t, n)])


def wheel(n: int) -> Graph:
    """Cycle on vertices 0..n-2 with every rim vertex joined to hub n-1."""
    if n < 4:
        raise ValueError("wheel needs n >= 4")
    edges = [(v, (v + 1) % (n - 1)) for v in range(n - 1)]
    edges += [(v, n - 1) for v in range(n - 1)]
    return new_graph(n, edges)


def split_graph(n: int, k: int) -> Graph:
    """Clique on 0..k-1 completely joined to the n-k independent vertices."""
    if k < 1 or n < k + 1:
        raise ValueError("split graph needs 1 <= k <= n-1")
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(u, v) for u in range(k) for v in range(k, n)]
    return new_graph(n, edges)


# -- finite fields -------------------------------------------------------------


def _prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p**k, or None."""
    if q < 2:
        return None
    # the least divisor above 1 is prime, and q itself when none is <= sqrt(q)
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


def _poly_mul_mod(a: tuple[int, ...], b: tuple[int, ...], f: tuple[int, ...], p: int) -> tuple[int, ...]:
    # multiply then reduce modulo the monic polynomial f, all over GF(p)
    k = len(f) - 1
    prod_c = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod_c[i + j] = (prod_c[i + j] + ai * bj) % p
    for d in range(len(prod_c) - 1, k - 1, -1):
        c = prod_c[d]
        if c:
            prod_c[d] = 0
            for i in range(k):
                prod_c[d - k + i] = (prod_c[d - k + i] - c * f[i]) % p
    return tuple(prod_c[:k])


def _poly_divides(d: tuple[int, ...], f: tuple[int, ...], p: int) -> bool:
    # both monic, coefficients low-degree first
    rem = list(f)
    deg_d = len(d) - 1
    for top in range(len(rem) - 1, deg_d - 1, -1):
        c = rem[top]
        if c:
            for i, di in enumerate(d):
                rem[top - deg_d + i] = (rem[top - deg_d + i] - c * di) % p
    return not any(rem[:deg_d])


def _monic_polys(p: int, deg: int):
    for coeffs in product(range(p), repeat=deg):
        yield coeffs + (1,)


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    # lexicographically smallest monic irreducible of degree k, coefficients
    # compared low-degree-first
    for f in _monic_polys(p, k):
        if all(
            not _poly_divides(d, f, p)
            for deg in range(1, k // 2 + 1)
            for d in _monic_polys(p, deg)
        ):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


@dataclass(frozen=True)
class FiniteField:
    """GF(q) with full add/mul tables indexed 0..q-1.

    Elements encode polynomial coefficients as base-p digits: element e has
    coefficient (e // p**i) % p on x**i.  For prime q this is plain Z/p.
    """

    q: int
    characteristic: int
    degree: int
    reduction_poly: tuple[int, ...]
    add_table: tuple[tuple[int, ...], ...]
    mul_table: tuple[tuple[int, ...], ...]

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.mul_table[a].index(1)


def finite_field(q: int) -> FiniteField:
    """Field tables for GF(q), q = p**k a prime power with q <= 64."""
    pk = _prime_power(q)
    if pk is None or q > 64:
        raise ValueError(f"{q} is not a supported prime power")
    p, k = pk
    if k == 1:
        red = (0, 1)  # x itself; unused for prime fields
        add = tuple(tuple((a + b) % p for b in range(p)) for a in range(p))
        mul = tuple(tuple((a * b) % p for b in range(p)) for a in range(p))
        return FiniteField(q, p, 1, red, add, mul)
    red = _smallest_irreducible(p, k)

    def digits(e: int) -> tuple[int, ...]:
        return tuple((e // p**i) % p for i in range(k))

    def undigits(c: tuple[int, ...]) -> int:
        return sum(ci * p**i for i, ci in enumerate(c))

    elems = [digits(e) for e in range(q)]
    add = tuple(
        tuple(undigits(tuple((x + y) % p for x, y in zip(a, b))) for b in elems)
        for a in elems
    )
    mul = tuple(
        tuple(undigits(_poly_mul_mod(a, b, red, p)) for b in elems) for a in elems
    )
    return FiniteField(q, p, k, red, add, mul)


def projective_points(q: int) -> list[tuple[int, int, int]]:
    """The q^2+q+1 points of PG(2,q): triples with first nonzero entry 1."""
    pts = []
    for triple in product(range(q), repeat=3):
        first = next((c for c in triple if c), None)
        if first == 1:
            pts.append(triple)
    return pts


def polarity_graph(q: int) -> Graph:
    """Orthogonal polarity graph: points adjacent when their dot product is 0.

    Exactly q+1 vertices (the absolute points, which get no loop) have
    degree q; the other q^2 have degree q+1.  The result is C4-free.
    """
    if q not in POLARITY_ORDERS:
        raise ValueError(f"polarity graph needs q in {POLARITY_ORDERS}")
    field = finite_field(q)
    pts = projective_points(q)
    mul, addt = field.mul_table, field.add_table

    def dot(u: tuple[int, int, int], v: tuple[int, int, int]) -> int:
        s = 0
        for x, y in zip(u, v):
            s = addt[s][mul[x][y]]
        return s

    n = len(pts)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if dot(pts[i], pts[j]) == 0
    ]
    return new_graph(n, edges)


# -- family dispatch and closed forms ------------------------------------------


@dataclass(frozen=True)
class FamilyId:
    """One of the named families; t is the small part size, k the clique size."""

    name: str
    t: int | None = None
    k: int | None = None


def construct(family: FamilyId, size: int) -> Graph:
    """Build the family member; size is n, except q for polarity graphs."""
    match family.name:
        case "star":
            return star(size)
        case "cycle":
            return cycle_graph(size)
        case "friendship":
            return friendship(size)
        case "complete_bipartite":
            if family.t is None:
                raise ValueError("complete_bipartite needs part size t")
            return complete_bipartite(family.t, size)
        case "wheel":
            return wheel(size)
        case "split":
            if family.k is None:
                raise ValueError("split needs clique size k")
            return split_graph(size, family.k)
        case "polarity":
            return polarity_graph(size)
    raise ValueError(f"unknown family {family.name!r}")


def ep_closed_form(family: FamilyId, size: int, p: int) -> int:
    """Exact closed-form degree power; always equals ep of the built graph."""
    if p < 1:
        raise ValueError("p must be >= 1")
    n = size
    match family.name:
        case "star":
            if n < 2:
                raise ValueError("star needs n >= 2")
            return (n - 1) ** p + (n - 1)
        case "cycle":
            if n < 3:
                raise ValueError("cycle needs n >= 3")
            return n * 2**p
        case "friendship":
            if n < 2:
                raise ValueError("friendship graph needs n >= 2")
            if n % 2:
                return (n - 1) ** p + (n - 1) * 2**p
            return (n - 1) ** p + (n - 2) * 2**p + 1
        case "complete_bipartite":
            t = family.t
            if t is None or not 1 <= t < n:
                raise ValueError("complete bipartite needs 1 <= t < n")
            return t * (n - t) ** p + (n - t) * t**p
        case "wheel":
            if n < 4:
                raise ValueError("wheel needs n >= 4")
            return (n - 1) ** p + (n - 1) * 3**p
        case "split":
            k = family.k
            if k is None or k < 1 or n < k + 1:
                raise ValueError("split graph needs 1 <= k <= n-1")
            return k * (n - 1) ** p + (n - k) * k**p
        case "polarity":
            q = size
            if _prime_power(q) is None:
                raise ValueError(f"{q} is not a prime power")
            return (q + 1) * q**p + q * q * (q + 1) ** p
    raise ValueError(f"unknown family {family.name!r}")
