"""Executable verification: theorem brute force, tuple scans, identities.

Every check returns a VerificationRecord; a failing record always carries a
witness (offending tuple or graph6 counterexample), also when a displayed
tuple or a family's construction is itself wrong.  All comparisons are
exact integer comparisons.  Threshold scans report the smallest n0 such
that the inequality holds for every scanned n in [n0, n_max] -- a tail
property, not the first success.

Each check is one table row, and these tables and SUITES are the only
places that state the checks:
- THEOREMS, the brute-forced statements: per check id its least order,
  its graph class and its claimed extremal families.  A theorem task is
  planned (validated) once and enumerates each check's class once (once
  per k for t4), scoring every p in that pass.
- LEMMAS, the parity and least order of Lemma 1 and Lemma 1.2, whose
  comparison tuples one builder (lemma_tuples) states for both.
- THRESHOLD_PAIRS, the crossover tables: families, scanned orders,
  window, table values and the Appendix A part bounding the rest.
- APPENDIX_PARTS, the two Appendix A tail inequalities with their least
  exponent and scanned orders.
SUITES is the one default grid; the CLI only filters and overrides its
rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Callable, NamedTuple, Sequence

from .enumeration import (
    ExtremalTracker,
    SearchPredicate,
    canonical_graph,
    check_enumerable,
    enumerate_graphs,
)
from .families import (
    POLARITY_ORDERS,
    FamilyId,
    _prime_power,
    construct,
    ep_closed_form,
    polarity_graph,
)
from .graphs import Graph, degree_sequence, ep, to_graph6
from .majorization import p_power_norm
from .structure import has_c4

APPENDIX_N_MAX = 401


@dataclass(frozen=True)
class VerificationRecord:
    check: str
    params: dict
    verdict: str
    value: int | str | None = None
    witness: object = None
    detail: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.verdict not in ("pass", "fail"):
            raise ValueError(f"verdict must be pass/fail, got {self.verdict!r}")
        if self.verdict == "fail" and self.witness is None:
            raise ValueError("failing records must carry a witness")

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "verdict": self.verdict,
            "value": self.value,
            "witness": self.witness,
            "detail": self.detail,
        }


# -- proof-tuple scans ---------------------------------------------------------


# lemma -> (parity of its orders, least order).  Lemma 1.2 (even n) is
# Lemma 1 (odd n) plus F_n's unmatched leaf, so with o = 1 - n % 2 one
# builder states the tuples of both.
LEMMAS = {"lemma1": (1, 7), "lemma12": (0, 6)}
_LemmaTuples = tuple[tuple[int, ...], tuple[int, ...], dict[int, tuple[int, ...]]]


def lemma_tuples(lemma: str, n: int) -> _LemmaTuples:
    """The two displayed n-tuples of part (i) and, per admitted q, that of
    part (ii); lemma_tuple_check checks their shape.

    Each sums to 3(n-1) - o.  Part (ii) admits 2 <= q < floor((n-1)/2) (none at
    a boundary n) with r, epsilon = divmod((q-1)(n-2) + o, q), epsilon being
    the remainder folded into one entry.
    """
    if lemma not in LEMMAS:
        raise ValueError(f"unknown lemma {lemma!r}")
    parity, least = LEMMAS[lemma]
    if n < least or n % 2 != parity:
        raise ValueError(f"{lemma} needs {('even', 'odd')[parity]} n >= {least}")
    o, h = 1 - parity, n // 2 + 1
    t1 = (n - 1,) + (2,) * (n - 1 - o) + (1,) * o
    t2 = (h, h - o, h - o, h - 1 - o) + (1,) * (n - 4)
    part_ii = {}
    for q in range(2, (n - 1) // 2):
        r, eps = divmod((q - 1) * (n - 2) + o, q)
        part_ii[q] = (n - q,) + (q + 1,) * (n - r - 2) + (q + 1 - eps,) + (1,) * r
    return t1, t2, part_ii


def _check_lemma_args(lemma: str, n: int, p: int) -> _LemmaTuples:
    tuples = lemma_tuples(lemma, n)
    if p < 2:
        raise ValueError("p must be > 1")
    return tuples


def lemma_tuple_check(lemma: str, n: int, p: int) -> VerificationRecord:
    """Part (i) once, part (ii) for every admitted q; empty ranges pass (ii)
    vacuously.  Part (i) is non-strict at odd n (lemma1; equality occurs at
    p=2), everything else is strict.  A tuple that is not an n-tuple with
    the lemma's sum in non-increasing order fails the check as its witness."""
    t1, t2, part_ii = _check_lemma_args(lemma, n, p)
    params = {"n": n, "p": p}
    total = 3 * (n - 1) - (1 - n % 2)
    for t in (t1, t2, *part_ii.values()):
        if len(t) != n or sum(t) != total or any(a < b for a, b in zip(t, t[1:])):
            return VerificationRecord(check=lemma, params=params, verdict="fail",
                                      witness={"malformed": list(t), "sum": total})
    norm1 = p_power_norm(t1, p)
    norm2 = p_power_norm(t2, p)
    ok_i = norm2 <= norm1 if n % 2 else norm2 < norm1
    detail = {
        "norm1": norm1,
        "norm2": norm2,
        "equality_i": norm2 == norm1,
        "q_checked": len(part_ii),
    }
    if not ok_i:
        return VerificationRecord(
            check=lemma, params=params, verdict="fail",
            witness={"part": "i", "tuple": list(t2), "norm": norm2},
            detail=detail,
        )
    for q, t3 in part_ii.items():
        norm3 = p_power_norm(t3, p)
        if not norm3 < norm1:
            return VerificationRecord(
                check=lemma, params=params, verdict="fail",
                witness={"part": "ii", "q": q, "tuple": list(t3), "norm": norm3},
                detail=detail,
            )
    return VerificationRecord(check=lemma, params=params, verdict="pass",
                              value=norm1 - norm2, detail=detail)


# -- theorem brute force -------------------------------------------------------


def _edge_cap(n: int) -> int:
    # theorem 1's edge bound; also the most edges an even-cycle-free graph
    # on n vertices has, attained by F_n
    return 3 * (n - 1) // 2


_F = FamilyId("friendship")
_K2 = FamilyId("complete_bipartite", t=2)


class TheoremSpec(NamedTuple):
    """One brute-forced extremal statement.

    The check runs at n >= least_n, plus k where it takes a degeneracy
    bound k.  predicate and families take (n, k), k None unless taken;
    families are the claimed extremal graphs of order n.  With borrowed
    facts, the same pass also confirms the two facts the statement
    borrows: at most _edge_cap(n) edges, and the min-degree >= 1 subclass
    has the same extremal set.
    """

    title: str
    least_n: int
    predicate: Callable[[int, int | None], SearchPredicate]
    families: Callable[[int, int | None], tuple[FamilyId, ...]]
    takes_k: bool = False
    borrowed_facts: bool = False


THEOREMS: dict[str, TheoremSpec] = {
    "t1": TheoremSpec("theorem 1", 4, lambda n, k: SearchPredicate(
        c4_free=True, max_edges=_edge_cap(n), min_degree=1), lambda n, k: (_F,)),
    "c1": TheoremSpec("corollary 1", 4, lambda n, k: SearchPredicate(even_cycle_free=True),
                      lambda n, k: (_F,), borrowed_facts=True),
    "t2i": TheoremSpec("theorem 2", 4, lambda n, k: SearchPredicate(minimally_connected=2),
                       lambda n, k: (_K2,)),
    # F_n belongs to the 2-edge-connected class only at odd n
    "t2ii": TheoremSpec("theorem 2", 4, lambda n, k: SearchPredicate(minimally_edge_connected=2),
                        lambda n, k: (_K2, _F) if n % 2 else (_K2,)),
    "t3": TheoremSpec("theorem 3", 8, lambda n, k: SearchPredicate(minimally_connected=3),
                      lambda n, k: (FamilyId("wheel"), FamilyId("complete_bipartite", t=3))),
    "t4": TheoremSpec("theorem 4", 1, lambda n, k: SearchPredicate(degenerate=k),
                      lambda n, k: (FamilyId("split", k=k),), takes_k=True),
}


def _theorem_checks(thm: str, n: int, k_values: Sequence[int] | None) -> list[tuple[str, int | None]]:
    """The (check, k) passes of one grid task: t2 is t2i and t2ii, and a
    check taking k runs once per k with n >= least_n + k."""
    checks: list[tuple[str, int | None]] = []
    for check in ("t2i", "t2ii") if thm == "t2" else (thm,):
        spec = THEOREMS.get(check)
        if spec is not None and spec.takes_k:
            checks += [(check, k) for k in k_values or () if n >= spec.least_n + k]
        else:
            checks.append((check, None))
    return checks


# one validated check instance: (check, k, spec, predicate)
_Plan = tuple[str, int | None, TheoremSpec, SearchPredicate]


def _theorem_plan(check: str, n: int, p_values: Sequence[int], k: int | None) -> _Plan:
    """Validate one check instance without enumerating anything."""
    spec = THEOREMS.get(check)
    if spec is None:
        raise ValueError(f"unknown theorem id {check!r}")
    if any(p < 2 for p in p_values):
        raise ValueError("p must be > 1")
    if spec.takes_k and (k is None or k < 1):
        raise ValueError(f"{spec.title} needs a degeneracy bound k >= 1")
    least = spec.least_n + (k if spec.takes_k else 0)
    if n < least:
        raise ValueError(f"{spec.title} needs n >= {least}")
    pred = spec.predicate(n, k)
    check_enumerable(n, pred)
    return check, k, spec, pred


def _theorem_plans(thm: str, n: int, p_values: Sequence[int],
                   k_values: Sequence[int] | None = None) -> list[_Plan]:
    """The validated plans of one grid task, one per (check, k)."""
    checks = _theorem_checks(thm, n, k_values)
    if not checks:
        raise ValueError(f"{thm} runs no check at n={n} for k in {list(k_values or ())}")
    return [_theorem_plan(check, n, p_values, k) for check, k in checks]


def _theorem_pass(plan: _Plan, n: int, p_values: Sequence[int]) -> list[VerificationRecord]:
    """One enumeration of the check's class, scored at every p.

    For each p the maximum and the complete witness set must equal those of
    the claimed extremal families (uniqueness included), and each family's
    closed form must equal e_p of its construction.
    """
    check, k, spec, pred = plan
    claimed = [(fam, canonical_graph(construct(fam, n))) for fam in spec.families(n, k)]
    tracker = ExtremalTracker(p_values)
    visit = tracker.visit
    if spec.borrowed_facts:
        restricted_pred, restricted = replace(pred, min_degree=1), ExtremalTracker(p_values)

        def visit(g: Graph) -> None:
            tracker.visit(g)
            if restricted_pred.leaf_ok(g):
                restricted.visit(g)

    examined = enumerate_graphs(n, pred, visit)
    records = []
    for p in p_values:
        values = [(to_graph6(g).decode("ascii"), ep_closed_form(fam, n, p), ep(g, p))
                  for fam, g in claimed]
        mismatch = [{"graph6": g6, "closed_form": v, "ep": e} for g6, v, e in values if v != e]
        expected_max = max(v for _, v, _ in values)
        expected = tuple(sorted(g6 for g6, v, _ in values if v == expected_max))
        best, found = tracker.best[p], tracker.witnesses(p)
        ok = not mismatch and best == expected_max and found == expected
        detail: dict = {"predicate": pred.describe(), "graphs_examined": examined}
        if spec.borrowed_facts:
            agrees = restricted.best[p] == best and restricted.witnesses(p) == found
            ok = ok and tracker.max_edges <= _edge_cap(n) and agrees
            detail = {"graphs_examined": examined, "max_edges_seen": tracker.max_edges,
                      "edge_cap": _edge_cap(n), "min_degree_filter_agrees": agrees}
        detail.update(expected_max=expected_max, expected_witnesses=list(expected),
                      found_witnesses=list(found))
        witness = mismatch[0] if mismatch else {"found": list(found), "expected": list(expected)}
        records.append(VerificationRecord(
            check=check,
            params={"n": n, "p": p, **({"k": k} if spec.takes_k else {})},
            verdict="pass" if ok else "fail",
            value=best,
            witness=None if ok else witness,
            detail=detail,
        ))
    return records


def brute_force_theorem(thm: str, n: int, p: int, *, k: int | None = None) -> VerificationRecord:
    """Exhaustive check of one theorem instance at order n, exponent p.

    Runs the extremal search for the theorem's graph class and compares the
    maximum and the complete witness set against the claimed extremal
    families of THEOREMS[thm].
    """
    return _theorem_pass(_theorem_plan(thm, n, (p,), k), n, (p,))[0]


# -- closed-form scans ---------------------------------------------------------


class AppendixPart(NamedTuple):
    """One Appendix A tail inequality h(n, p) > 0: it is scanned for
    p >= least_p over n = 2p - slack, 2p - slack + step, ... up to n_max."""

    least_p: int
    slack: int
    step: int
    h: Callable[[int, int], int]


# part i over odd n >= 2p-1 from p = 5, part ii over n >= 2p from p = 12
APPENDIX_PARTS: dict[str, AppendixPart] = {
    "i": AppendixPart(5, 1, 2, lambda n, p: 2 * (n - 2) ** p - (n - 1) ** p - 2**p),
    "ii": AppendixPart(12, 0, 1, lambda n, p: 3 * (n - 3) ** p - (n - 1) ** p - 2 * 3**p),
}


class ThresholdPair(NamedTuple):
    """One crossover table: the smallest n0 with e_p(lhs) < e_p(rhs) for
    every scanned n in [n0, n_max], the orders starting at first_n in
    steps of step.  Where table lists no p, the tail must start by the
    bound 2p - slack of the Appendix A part whose h(n) is the gap."""

    lhs: FamilyId
    rhs: FamilyId
    first_n: int
    step: int
    n_max: int
    table: dict[int, int]
    part: str


# the comparison with the friendship graph concerns odd orders; the
# thresholds are those reported in the source tables
THRESHOLD_PAIRS: dict[str, ThresholdPair] = {
    "F_vs_K2": ThresholdPair(_F, _K2, 5, 2, 201, {2: 7, 3: 7, 4: 9}, "i"),
    "W_vs_K3": ThresholdPair(FamilyId("wheel"), FamilyId("complete_bipartite", t=3), 6, 1, 200,
                             {2: 8, 3: 9, 4: 10, 5: 12, 6: 13, 7: 15, 8: 17, 9: 19, 10: 21,
                              11: 23}, "ii"),
}


def _threshold_window(pair: str, p: int, n_max: int | None = None) -> range:
    """The orders a threshold scan covers (n_max None: the table's window).
    Raises for an unknown pair, p < 2, or a window too small to see the
    tail."""
    if pair not in THRESHOLD_PAIRS:
        raise ValueError(f"unknown pair {pair!r}")
    if p < 2:
        raise ValueError("p must be >= 2")
    row = THRESHOLD_PAIRS[pair]
    if n_max is None:
        n_max = row.n_max
    if n_max < 2 * p + 4:
        raise ValueError("n_max too small to see the tail; need n_max >= 2p+4")
    return range(row.first_n, n_max + 1, row.step)


def threshold_scan(pair: str, p: int, n_max: int) -> int:
    """Smallest n0 with lhs < rhs for every scanned n in [n0, n_max].

    Raises if the window is invalid (see _threshold_window) or if its top
    still fails.
    """
    ns = _threshold_window(pair, p, n_max)
    row = THRESHOLD_PAIRS[pair]
    fails = [n for n in ns if not ep_closed_form(row.lhs, n, p) < ep_closed_form(row.rhs, n, p)]
    if not fails:
        return ns[0]
    n0 = fails[-1] + row.step
    if n0 > n_max:
        raise ValueError(f"no threshold within n_max={n_max} for {pair}, p={p}")
    return n0


def threshold_record(pair: str, p: int, n_max: int | None = None) -> VerificationRecord:
    """Scan and compare against the table value, or where the table does
    not list p against the Appendix A bound.  An invalid window raises; a
    window whose top still fails is a failed record."""
    ns = _threshold_window(pair, p, n_max)  # a bad argument raises here
    row, n_max = THRESHOLD_PAIRS[pair], ns.stop - 1
    params = {"pair": pair, "p": p, "n_max": n_max}
    try:
        n0 = threshold_scan(pair, p, n_max)
    except ValueError as exc:
        return VerificationRecord(
            check="threshold", params=params, verdict="fail", witness=str(exc)
        )
    if p in row.table:
        ok = n0 == row.table[p]
        detail = {"expected": row.table[p]}
    else:
        bound = 2 * p - APPENDIX_PARTS[row.part].slack
        ok = n0 <= bound
        detail = {"expected_at_most": bound}
    return VerificationRecord(
        check="threshold",
        params=params,
        verdict="pass" if ok else "fail",
        value=n0,
        witness=None if ok else {"n0": n0, **detail},
        detail=detail,
    )


def _appendix_window(part: str, p: int, n_max: int = APPENDIX_N_MAX) -> range:
    """The orders an appendix scan covers; raises for an unknown part, p
    below the part's least exponent, or a window holding no order."""
    if part not in APPENDIX_PARTS:
        raise ValueError(f"unknown part {part!r}")
    row = APPENDIX_PARTS[part]
    if p < row.least_p:
        raise ValueError(f"part {part} needs p >= {row.least_p}")
    ns = range(2 * p - row.slack, n_max + 1, row.step)
    if not ns:
        raise ValueError(f"n_max={n_max} leaves nothing to scan; part {part} at p={p} "
                         f"needs n_max >= {ns.start}")
    return ns


def appendix_a_scan(part: str, p: int, n_max: int = APPENDIX_N_MAX) -> VerificationRecord:
    """Exact positivity scan of one Appendix A tail inequality over its
    window; the first order where h(n, p) <= 0 is the witness."""
    ns = _appendix_window(part, p, n_max)
    h = APPENDIX_PARTS[part].h
    params = {"part": part, "p": p, "n_max": n_max}
    values = {n: h(n, p) for n in ns}
    bad = next((n for n, value in values.items() if value <= 0), None)
    if bad is not None:
        return VerificationRecord(check="appendixA", params=params, verdict="fail",
                                  witness={"n": bad, "value": values[bad]})
    min_val = min(values.values())
    return VerificationRecord(
        check="appendixA", params=params, verdict="pass", value=min_val,
        detail={"scanned": len(ns), "min_value": min_val},
    )


def _check_polarity_args(q: int, p: int) -> None:
    if _prime_power(q) is None:
        raise ValueError(f"{q} is not a prime power")
    if p < 2:
        raise ValueError("p must be >= 2")


def polarity_check(q: int, p: int) -> VerificationRecord:
    """Identities tying the polarity graph to the friendship graph.

    (a) at p=2 the difference e_2(PG) - e_2(F_n) equals q(q+1)(q-4);
    (b) at p>=3 the difference e_p(F_n) - e_p(PG) equals
        q(q+1)2^p + q^2(q+1)([q^(p-2)-1][(q+1)^(p-1)-1]-1) and is positive;
    (c) e_2(PG) = q^2(q+1)(q+2).
    For q in POLARITY_ORDERS the graph is built and cross-checked: vertex
    count, the q+1/q^2 degree split, C4-freeness, and direct e_p agreement.
    """
    _check_polarity_args(q, p)
    n = q * q + q + 1
    params = {"q": q, "p": p}
    pg = FamilyId("polarity")
    e2_pg = ep_closed_form(pg, q, 2)
    detail: dict = {"n": n, "e2_pg": e2_pg}
    problems: list[dict] = []

    if e2_pg != q * q * (q + 1) * (q + 2):  # (c)
        problems.append({"identity": "c", "e2_pg": e2_pg})
    if p == 2:  # (a)
        diff = e2_pg - ep_closed_form(_F, n, 2)
        detail["difference"] = diff
        if diff != q * (q + 1) * (q - 4):
            problems.append({"identity": "a", "difference": diff})
    else:  # (b)
        diff = ep_closed_form(_F, n, p) - ep_closed_form(pg, q, p)
        formula = q * (q + 1) * 2**p + q * q * (q + 1) * (
            (q ** (p - 2) - 1) * ((q + 1) ** (p - 1) - 1) - 1
        )
        detail["difference"] = diff
        detail["formula"] = formula
        if diff != formula or not diff > 0:
            problems.append({"identity": "b", "difference": diff, "formula": formula})

    if q in POLARITY_ORDERS:
        g = polarity_graph(q)
        degs = degree_sequence(g)
        built_ok = (
            g.n == n
            and degs.count(q) == q + 1
            and degs.count(q + 1) == q * q
            and not has_c4(g)
            and ep(g, p) == ep_closed_form(pg, q, p)
            and ep(g, 2) == e2_pg
        )
        detail["constructed"] = True
        if not built_ok:
            problems.append({"identity": "construction", "degrees": list(degs[:6])})
    else:
        detail["constructed"] = False

    ok = not problems
    return VerificationRecord(
        check="polarity",
        params=params,
        verdict="pass" if ok else "fail",
        value=detail.get("difference"),
        witness=None if ok else problems,
        detail=detail,
    )


# -- suite plumbing -------------------------------------------------------------


def theorem_records(
    thm: str,
    n: int,
    p_values: Sequence[int],
    k_values: Sequence[int] | None = None,
) -> list[VerificationRecord]:
    """All records for one theorem at one order.

    t2 stands for t2i and t2ii, and t4 runs once per k in k_values.  Each
    check (and k) enumerates its class once and scores every p in that one
    pass; the records come out p-major: for each p, every check and k.
    Whatever validate_task rejects, such as t4 with n < k+1 for every k,
    raises the same ValueError before anything is enumerated.
    """
    passes = [_theorem_pass(plan, n, p_values)
              for plan in _theorem_plans(thm, n, p_values, k_values)]
    return [records[i] for i in range(len(p_values)) for records in passes]


class _TaskKind(NamedTuple):
    """check raises ValueError for the task's keywords where run would,
    without running anything."""

    check: Callable[..., object]
    run: Callable[..., list[VerificationRecord]]


_TASK_KINDS = {
    "theorem": _TaskKind(_theorem_plans, theorem_records),
    "lemma": _TaskKind(_check_lemma_args, lambda **kw: [lemma_tuple_check(**kw)]),
    "threshold": _TaskKind(_threshold_window, lambda **kw: [threshold_record(**kw)]),
    "appendixA": _TaskKind(_appendix_window, lambda **kw: [appendix_a_scan(**kw)]),
    "polarity": _TaskKind(_check_polarity_args, lambda **kw: [polarity_check(**kw)]),
}


def _task_kind(kind: str) -> _TaskKind:
    if kind not in _TASK_KINDS:
        raise ValueError(f"unknown task kind {kind!r}")
    return _TASK_KINDS[kind]


def run_task(task: tuple[str, dict]) -> list[VerificationRecord]:
    """Dispatch one grid task (picklable, for process pools)."""
    kind, kw = task
    return _task_kind(kind).run(**kw)


def validate_task(task: tuple[str, dict]) -> None:
    """Raise ValueError for a task that cannot run, before any of it runs:
    for theorems an unknown id, n below the least order, p < 2, an order
    enumerate_graphs refuses or no check to run (t4 with n < k+1 for every
    k); a lemma n of the wrong parity; a threshold or appendix window too
    small; a polarity q that is not a prime power."""
    kind, kw = task
    _task_kind(kind).check(**kw)


class GridRow(NamedTuple):
    """Tasks of one kind: every task gets the fixed keywords plus one point
    of the product of the axes, in axis order."""

    kind: str
    fixed: dict
    axes: dict


# The desk-scale grid, one task per enumeration unit: a theorem task covers
# one order n and all its p.  Each axis range starts at the least value its
# check admits and steps through the admitted values (odd n for lemma1).
SUITES: dict[str, tuple[GridRow, ...]] = {
    "thm1": (GridRow("theorem", {"thm": "t1", "p_values": (2, 3)}, {"n": range(4, 10)}),),
    "cor1": (GridRow("theorem", {"thm": "c1", "p_values": (2, 3)}, {"n": range(4, 9)}),),
    "thm2": (GridRow("theorem", {"thm": "t2", "p_values": (2, 3, 4, 5)}, {"n": range(4, 9)}),),
    "thm3": (GridRow("theorem", {"thm": "t3", "p_values": (2,)}, {"n": range(8, 9)}),),
    "thm4": (GridRow("theorem", {"thm": "t4", "p_values": (2, 3), "k_values": (1, 2, 3)},
                     {"n": range(2, 9)}),),
    "lemma1": (GridRow("lemma", {"lemma": "lemma1"}, {"n": range(7, 62, 2), "p": range(2, 9)}),),
    "lemma12": (GridRow("lemma", {"lemma": "lemma12"}, {"n": range(6, 61, 2), "p": range(2, 9)}),),
    "thresholds": (
        GridRow("threshold", {"pair": "W_vs_K3", "n_max": THRESHOLD_PAIRS["W_vs_K3"].n_max},
                {"p": range(2, 12)}),
        GridRow("threshold", {"pair": "F_vs_K2", "n_max": THRESHOLD_PAIRS["F_vs_K2"].n_max},
                {"p": range(2, 9)}),
    ),
    "appendixA": (
        GridRow("appendixA", {"part": "i", "n_max": APPENDIX_N_MAX}, {"p": range(5, 13)}),
        GridRow("appendixA", {"part": "ii", "n_max": APPENDIX_N_MAX}, {"p": range(12, 17)}),
    ),
    "polarity": (GridRow("polarity", {}, {"q": (2, 3, 4, 5, 7, 8, 9, 11), "p": range(2, 7)}),),
}


def grid_tasks(row: GridRow) -> list[tuple[str, dict]]:
    """One task per point of the row's axes, less the theorem tasks that
    run no check (t4 where n < k+1 for every k)."""
    tasks = [(row.kind, {**row.fixed, **dict(zip(row.axes, point))})
             for point in product(*row.axes.values())]
    return [(kind, kw) for kind, kw in tasks
            if kind != "theorem" or _theorem_checks(kw["thm"], kw["n"], kw.get("k_values"))]


def suite_tasks(suite: str) -> list[tuple[str, dict]]:
    """The grid of one suite; all-desk is every suite in table order."""
    if suite == "all-desk":
        rows = [row for rows in SUITES.values() for row in rows]
    elif suite in SUITES:
        rows = list(SUITES[suite])
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return [task for row in rows for task in grid_tasks(row)]
