"""Named graph families, their exact degree-power closed forms, and GF(q).

FAMILIES states each named family once, in one row: params, the
member's parameters in the construct CLI's order (n, or q for polarity
graphs, plus the FamilyId's t or k); domain, with one error message;
graph, which builds the member; and closed_form, its e_p, which never
builds it, since threshold scans evaluate it far above the 64-vertex
cap.  construct and ep_closed_form are a row lookup plus the domain
check, and the named constructors (star, ..., split_graph) call
construct.  construct and the construct CLI build through _Family.build,
which refuses an order past the cap before listing an edge.

Labelings are fixed for determinism: stars and friendship graphs put the
center at vertex 0, wheels put the hub last, the split graph's clique comes
first.  The polarity graph's vertices are the normalized projective points
of GF(q)^3 in lexicographic order, adjacent when their dot product vanishes.
Its closed form holds for every prime power q; polarity_graph builds only
q in POLARITY_ORDERS.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from .graphs import Graph, check_vertex_count, new_graph

POLARITY_ORDERS = (2, 3, 4, 5, 7)  # q^2+q+1 <= 64


# -- finite fields -------------------------------------------------------------


# the first 13 primes; as Miller-Rabin bases they decide primality exactly
# below _MR_BOUND (Sorenson & Webster, Math. Comp. 86 (2017) 985-1003)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _iroot(q: int, k: int) -> int:
    """floor(q ** (1/k)) for q >= 1, by Newton's method from above in integers."""
    r = 1 << -(-q.bit_length() // k)
    while True:
        s = ((k - 1) * r + q // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _is_prime(r: int) -> bool:
    """Miller-Rabin with _MR_BASES; a ValueError where that is not exact."""
    for a in _MR_BASES:
        if r % a == 0:
            return r == a
    d, s = r - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, r)
        if x != 1 and all(pow(x, 1 << i, r) != r - 1 for i in range(s)):
            return False
    if r >= _MR_BOUND:
        raise ValueError(f"cannot decide whether {r} is prime: it is not below {_MR_BOUND}")
    return True


def _prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p**k, or None.

    q is r**k for the largest such k, and then r is no perfect power, so q
    is a prime power iff r is prime.
    """
    if q < 2:
        return None
    r, k = next(((r, k) for k in range(q.bit_length(), 1, -1)
                 if (r := _iroot(q, k)) ** k == q), (q, 1))
    return (r, k) if _is_prime(r) else None


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


def finite_field(q: int) -> FiniteField:
    """Field tables for GF(q), q = p**k a prime power with q <= 64."""
    pk = _prime_power(q)
    if pk is None or q > 64:
        raise ValueError(f"{q} is not a supported prime power")
    p, k = pk
    red = _smallest_irreducible(p, k)  # x itself for a prime q

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


# -- the family table ----------------------------------------------------------


@dataclass(frozen=True)
class FamilyId:
    """One of the named families; t is the small part size, k the clique size."""

    name: str
    t: int | None = None
    k: int | None = None


class _Family(NamedTuple):
    """One row of FAMILIES; each callable takes the params by keyword, and
    error is formatted with them."""

    params: tuple[str, ...]
    domain: Callable[..., bool]
    error: str
    graph: Callable[..., Graph]
    closed_form: Callable[..., int]

    def check(self, **params: int) -> None:
        if not self.domain(**params):
            raise ValueError(self.error.format(**params))

    def build(self, **params: int) -> Graph:
        """The member of checked params; an order past the vertex cap is
        refused before any edge is listed (polarity_graph checks its q)."""
        if "n" in params:
            check_vertex_count(params["n"])
        return self.graph(**params)


FAMILIES: dict[str, _Family] = {
    "star": _Family(
        params=("n",), domain=lambda n: n >= 2, error="star needs n >= 2",
        graph=lambda n: new_graph(n, [(0, v) for v in range(1, n)]),
        closed_form=lambda n, p: (n - 1) ** p + (n - 1)),
    "cycle": _Family(
        params=("n",), domain=lambda n: n >= 3, error="cycle needs n >= 3",
        graph=lambda n: new_graph(n, [(v, (v + 1) % n) for v in range(n)]),
        closed_form=lambda n, p: n * 2**p),
    # for even n the unmatched leaf n-1 has degree 1
    "friendship": _Family(
        params=("n",), domain=lambda n: n >= 2, error="friendship graph needs n >= 2",
        graph=lambda n: new_graph(
            n, [(0, v) for v in range(1, n)] + [(v, v + 1) for v in range(1, n - 1, 2)]),
        closed_form=lambda n, p: (n - 1) ** p + (
            (n - 1) * 2**p if n % 2 else (n - 2) * 2**p + 1)),
    "complete_bipartite": _Family(
        params=("t", "n"), domain=lambda t, n: 1 <= t < n,
        error="complete bipartite needs 1 <= t < n",
        graph=lambda t, n: new_graph(n, [(u, v) for u in range(t) for v in range(t, n)]),
        closed_form=lambda t, n, p: t * (n - t) ** p + (n - t) * t**p),
    "wheel": _Family(
        params=("n",), domain=lambda n: n >= 4, error="wheel needs n >= 4",
        graph=lambda n: new_graph(
            n, [(v, w) for v in range(n - 1) for w in ((v + 1) % (n - 1), n - 1)]),
        closed_form=lambda n, p: (n - 1) ** p + (n - 1) * 3**p),
    "split": _Family(
        params=("n", "k"), domain=lambda n, k: 1 <= k < n,
        error="split graph needs 1 <= k <= n-1",
        graph=lambda n, k: new_graph(n, [(u, v) for u in range(k) for v in range(u + 1, n)]),
        closed_form=lambda n, k, p: k * (n - 1) ** p + (n - k) * k**p),
    "polarity": _Family(
        params=("q",), domain=lambda q: _prime_power(q) is not None,
        error="{q} is not a prime power", graph=polarity_graph,
        closed_form=lambda q, p: (q + 1) * q**p + q * q * (q + 1) ** p),
}


def _member(family: FamilyId, size: int) -> tuple[_Family, dict[str, int]]:
    """The family's row and the member's params, checked against its domain."""
    row = FAMILIES.get(family.name)
    if row is None:
        raise ValueError(f"unknown family {family.name!r}")
    params = {key: size if key in ("n", "q") else getattr(family, key) for key in row.params}
    if None in params.values():
        raise ValueError(f"{family.name} takes {' and '.join(row.params)}")
    row.check(**params)
    return row, params


def construct(family: FamilyId, size: int) -> Graph:
    """Build the family member; size is n, except q for polarity graphs."""
    row, params = _member(family, size)
    return row.build(**params)


def ep_closed_form(family: FamilyId, size: int, p: int) -> int:
    """Exact closed-form degree power; always equals ep of the built graph."""
    if p < 1:
        raise ValueError("p must be >= 1")
    row, params = _member(family, size)
    return row.closed_form(**params, p=p)


def star(n: int) -> Graph:
    return construct(FamilyId("star"), n)


def cycle_graph(n: int) -> Graph:
    return construct(FamilyId("cycle"), n)


def friendship(n: int) -> Graph:
    """Star plus a maximum matching on the leaves: (1,2), (3,4), ...

    For even n the last leaf n-1 stays unmatched.  Edge count is
    floor(3(n-1)/2) and there are no even cycles.
    """
    return construct(FamilyId("friendship"), n)


def complete_bipartite(t: int, n: int) -> Graph:
    return construct(FamilyId("complete_bipartite", t=t), n)


def wheel(n: int) -> Graph:
    """Cycle on vertices 0..n-2 with every rim vertex joined to hub n-1."""
    return construct(FamilyId("wheel"), n)


def split_graph(n: int, k: int) -> Graph:
    """Clique on 0..k-1 completely joined to the n-k independent vertices."""
    return construct(FamilyId("split", k=k), n)
