"""Executable verification: theorem brute force, tuple scans, identities.

Every check returns a VerificationRecord built by VerificationRecord.judged
from its outcome: a pass drops the witness, and a failing record always
carries one (offending tuple or graph6 counterexample), also when a
displayed tuple or a family's construction is itself wrong.  All
comparisons are exact integer comparisons.  Threshold scans report the smallest n0 such
that the inequality holds for every scanned n in [n0, n_max] -- a tail
property, not the first success.

Each check is one table row, and these tables and SUITES are the only
places that state the checks:
- THEOREMS, the brute-forced statements: per check id its least order,
  its graph class and its claimed extremal families.  A theorem task is
  planned (validated) once, one plan per check (and per k for t4), and
  every p is scored in one pass over the classes.
- LEMMAS, the parity and least order of Lemma 1 and Lemma 1.2, whose
  comparison tuples one builder (lemma_tuples) states for both.
- THRESHOLD_PAIRS, the crossover tables: families, scanned orders,
  window, table values and the Appendix A part bounding the rest.
- APPENDIX_PARTS, the two Appendix A tail inequalities with their least
  exponent and scanned orders.
SUITES is the one default grid; the CLI only filters and overrides its
rows.

run_grid is the one theorem runner: run_task, brute_force_theorem and the
CLI all score theorems through it.  It plans every task first and groups
the plans of the whole grid by the family they read
(enumeration._family_key), so one enumeration._pass over its classes
serves every plan on it.  Then it builds one list of units:
- given a pool of at least 2 workers, the highest order of each kind is
  split when _split_depth names a depth for it, all graphs before C4-free:
  the caller grows it from the order below down to that edge count (its
  head), and the frontier entries there are dealt round robin into
  UNITS_PER_SPLIT subtree units, each expanding the subtrees below its
  entries.  The subtrees of McKay's augmentation tree are disjoint, so the
  head and the units together visit the family once;
- then each closed-form task, run whole through run_task.
While the units run, the caller reads the heads and every family not split
(from the class cache, where a head caches each order below it, so checks
on one family share one generation across calls), and no unit reads the
class cache.  A unit returns records or trackers, never classes.  Each
family's trackers are merged in unit order (ExtremalTracker.merge) and
scored by _theorem_pass, so the records do not depend on who ran a unit.
Each check has one tracker: Corollary 1's borrowed facts (its edge bound
and its min-degree >= 1 subclass) are read off it too (_borrowed_facts).
This module starts no process: the caller passes a pool or every unit
runs inline.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from itertools import chain, product
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .enumeration import (
    ExtremalTracker,
    SearchPredicate,
    _Entry,
    _expand,
    _family,
    _family_key,
    _head,
    _pass,
    canonical_graph,
    check_enumerable,
)
from .families import (
    FAMILIES,
    POLARITY_ORDERS,
    FamilyId,
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

    @classmethod
    def judged(cls, ok: bool, check: str, params: dict, value: int | str | None = None,
               witness: object = None, detail: dict | None = None) -> VerificationRecord:
        """The one way a check states its outcome: a pass drops the witness,
        a fail keeps it."""
        return cls(check, params, "pass" if ok else "fail", value,
                   None if ok else witness, detail or {})

    def to_dict(self) -> dict:
        return asdict(self)


# -- proof-tuple scans ---------------------------------------------------------


# lemma -> (parity of its orders, least order).  Lemma 1.2 (even n) is
# Lemma 1 (odd n) plus F_n's unmatched leaf, so with o = 1 - n % 2 one
# builder states the tuples of both.
LEMMAS = {"lemma1": (1, 7), "lemma12": (0, 6)}
_LemmaTuples = tuple[tuple[int, ...], tuple[int, ...], Mapping[int, tuple[int, ...]]]


def _lemma_parity(lemma: str, n: int) -> int:
    """The parity of the lemma's orders; ValueError unless its row admits n."""
    if lemma not in LEMMAS:
        raise ValueError(f"unknown lemma {lemma!r}")
    parity, least = LEMMAS[lemma]
    if n < least or n % 2 != parity:
        raise ValueError(f"{lemma} needs {('even', 'odd')[parity]} n >= {least}")
    return parity


class _PartII(Mapping):
    """Part (ii)'s tuples by q, each built when it is read, so a check
    holds one n-tuple at a time rather than (n-1)/2 of them."""

    def __init__(self, n: int, o: int) -> None:
        self.n, self.o, self.qs = n, o, range(2, (n - 1) // 2)

    def __getitem__(self, q: int) -> tuple[int, ...]:
        if q not in self.qs:
            raise KeyError(q)
        n = self.n
        r, eps = divmod((q - 1) * (n - 2) + self.o, q)
        return (n - q,) + (q + 1,) * (n - r - 2) + (q + 1 - eps,) + (1,) * r

    def __iter__(self) -> Iterator[int]:
        return iter(self.qs)

    def __len__(self) -> int:
        return len(self.qs)


def lemma_tuples(lemma: str, n: int) -> _LemmaTuples:
    """The two displayed n-tuples of part (i) and, per admitted q, that of
    part (ii), built lazily; lemma_tuple_check checks their shape.

    Each sums to 3(n-1) - o.  Part (ii) admits 2 <= q < floor((n-1)/2) (none at
    a boundary n) with r, epsilon = divmod((q-1)(n-2) + o, q), epsilon being
    the remainder folded into one entry.
    """
    o, h = 1 - _lemma_parity(lemma, n), n // 2 + 1
    t1 = (n - 1,) + (2,) * (n - 1 - o) + (1,) * o
    t2 = (h, h - o, h - o, h - 1 - o) + (1,) * (n - 4)
    return t1, t2, _PartII(n, o)


def _check_lemma_args(lemma: str, n: int, p: int) -> None:
    # builds no tuple, so validating a lemma grid costs nothing per q
    _lemma_parity(lemma, n)
    if p < 2:
        raise ValueError("p must be > 1")


def lemma_tuple_check(lemma: str, n: int, p: int) -> VerificationRecord:
    """Part (i) once, part (ii) for every admitted q; empty ranges pass (ii)
    vacuously.  Part (i) is non-strict at odd n (lemma1; equality occurs at
    p=2), everything else is strict.  A tuple that is not an n-tuple with
    the lemma's sum in non-increasing order fails the check as its witness."""
    _check_lemma_args(lemma, n, p)
    t1, t2, part_ii = lemma_tuples(lemma, n)
    params = {"n": n, "p": p}
    total = 3 * (n - 1) - (1 - n % 2)
    # a malformed tuple wins over a norm failure; part (ii) is built again below
    for t in chain((t1, t2), part_ii.values()):
        if len(t) != n or sum(t) != total or any(a < b for a, b in zip(t, t[1:])):
            return VerificationRecord.judged(False, lemma, params,
                                             witness={"malformed": list(t), "sum": total})
    norm1 = p_power_norm(t1, p)
    norm2 = p_power_norm(t2, p)
    detail = {
        "norm1": norm1,
        "norm2": norm2,
        "equality_i": norm2 == norm1,
        "q_checked": len(part_ii),
    }
    witness = None
    if not (norm2 <= norm1 if n % 2 else norm2 < norm1):
        witness = {"part": "i", "tuple": list(t2), "norm": norm2}
    else:
        for q, t3 in part_ii.items():
            norm3 = p_power_norm(t3, p)
            if not norm3 < norm1:
                witness = {"part": "ii", "q": q, "tuple": list(t3), "norm": norm3}
                break
    ok = witness is None
    return VerificationRecord.judged(ok, lemma, params, value=norm1 - norm2 if ok else None,
                                     witness=witness, detail=detail)


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
    facts, the check's one tracker also confirms the two facts the
    statement borrows (_borrowed_facts): at most _edge_cap(n) edges, and
    the min-degree >= 1 subclass has the same extremal set.
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
    check taking k runs once per k with n >= least_n + k.  A check taking
    no k gets each given k too, so that planning refuses it."""
    checks: list[tuple[str, int | None]] = []
    for check in ("t2i", "t2ii") if thm == "t2" else (thm,):
        spec = THEOREMS.get(check)
        if spec is not None and spec.takes_k:
            checks += [(check, k) for k in k_values or () if n >= spec.least_n + k]
        else:
            checks += [(check, k) for k in k_values or (None,)]
    return checks


# one validated check instance: (check, k, spec, predicate)
_Plan = tuple[str, int | None, TheoremSpec, SearchPredicate]


def _theorem_plan(check: str, n: int, p_values: Sequence[int], k: int | None) -> _Plan:
    """Validate one check instance without enumerating anything."""
    spec = THEOREMS.get(check)
    if spec is None:
        raise ValueError(f"unknown theorem id {check!r}")
    if not p_values:
        raise ValueError(f"{spec.title} needs at least one p")
    if any(p < 2 for p in p_values):
        raise ValueError("p must be > 1")
    if spec.takes_k and (k is None or k < 1):
        raise ValueError(f"{spec.title} needs a degeneracy bound k >= 1")
    if not spec.takes_k and k is not None:
        raise ValueError(f"{spec.title} takes no degeneracy bound k")
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


class _Probe(NamedTuple):
    """What one plan asks of each class of its family, picklable: the
    predicate and the exponents scored, p = 1 among them for a check with
    borrowed facts."""

    pred: SearchPredicate
    p_values: tuple[int, ...]


def _probe_classes(n: int, probes: Sequence[_Probe],
                   classes: Iterable[Graph]) -> list[ExtremalTracker]:
    """Every probe's tracker over classes of one family, from one _pass."""
    trackers = [ExtremalTracker(probe.p_values) for probe in probes]
    _pass(n, classes, [(probe.pred, tracker.visit) for probe, tracker in zip(probes, trackers)])
    return trackers


def _borrowed_facts(tracker: ExtremalTracker, p: int) -> tuple[int, bool]:
    """The most edges a class's graph has, and whether its min-degree >= 1
    subclass has the same maximum and maximisers at p, read off the
    class's tracker, which scores p = 1 too.

    e_1 = 2m, so the most edges is half the maximum at p = 1 (0 for an
    empty class).  The subclass reaches the class's maximum, with the same
    maximisers, exactly when no maximiser has an isolated vertex.
    """
    return (tracker.best[1] or 0) // 2, all(all(g.adj) for g in tracker.maximisers[p])


def _theorem_pass(plan: _Plan, n: int, p_values: Sequence[int],
                  tracker: ExtremalTracker) -> list[VerificationRecord]:
    """The check's records, one per p, scored from its tracker.

    For each p the maximum and the complete witness set must equal those of
    the claimed extremal families (uniqueness included), and each family's
    closed form must equal e_p of its construction.
    """
    check, k, spec, pred = plan
    claimed = [(fam, canonical_graph(construct(fam, n))) for fam in spec.families(n, k)]
    examined = tracker.count
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
            max_edges, agrees = _borrowed_facts(tracker, p)
            ok = ok and max_edges <= _edge_cap(n) and agrees
            detail = {"graphs_examined": examined, "max_edges_seen": max_edges,
                      "edge_cap": _edge_cap(n), "min_degree_filter_agrees": agrees}
        detail.update(expected_max=expected_max, expected_witnesses=list(expected),
                      found_witnesses=list(found))
        witness = mismatch[0] if mismatch else {"found": list(found), "expected": list(expected)}
        params = {"n": n, "p": p, **({"k": k} if spec.takes_k else {})}
        records.append(VerificationRecord.judged(ok, check, params, best, witness, detail))
    return records


def _p_major(passes: list[list[VerificationRecord]]) -> list[VerificationRecord]:
    """One task's records: for each p, every check and k."""
    return [records[i] for i in range(len(passes[0])) for records in passes]


def brute_force_theorem(thm: str, n: int, p: int, *, k: int | None = None) -> VerificationRecord:
    """Exhaustive check of one theorem instance at order n, exponent p.

    Runs the extremal search for the theorem's graph class and compares the
    maximum and the complete witness set against the claimed extremal
    families of THEOREMS[thm], as run_task does for the one-check task.
    """
    _theorem_plan(thm, n, (p,), k)  # a check id (t2i, not t2), with its own errors
    kw = {"thm": thm, "n": n, "p_values": (p,), "k_values": None if k is None else (k,)}
    return run_task(("theorem", kw))[0]


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
        return VerificationRecord.judged(False, "threshold", params, witness=str(exc))
    if p in row.table:
        ok = n0 == row.table[p]
        detail = {"expected": row.table[p]}
    else:
        bound = 2 * p - APPENDIX_PARTS[row.part].slack
        ok = n0 <= bound
        detail = {"expected_at_most": bound}
    return VerificationRecord.judged(ok, "threshold", params, n0, {"n0": n0, **detail}, detail)


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
    window; the first order where h(n, p) <= 0 is the witness.  The values
    are streamed: only the least so far is kept."""
    ns = _appendix_window(part, p, n_max)
    h = APPENDIX_PARTS[part].h
    params = {"part": part, "p": p, "n_max": n_max}
    min_val = None
    for n in ns:
        value = h(n, p)
        if value <= 0:
            return VerificationRecord.judged(False, "appendixA", params,
                                             witness={"n": n, "value": value})
        if min_val is None or value < min_val:
            min_val = value
    return VerificationRecord.judged(True, "appendixA", params, value=min_val,
                                     detail={"scanned": len(ns), "min_value": min_val})


def _check_polarity_args(q: int, p: int) -> None:
    FAMILIES["polarity"].check(q=q)
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
        if diff != q * (q + 1) * (q - 4):
            problems.append({"identity": "a", "difference": diff})
    else:  # (b)
        diff = ep_closed_form(_F, n, p) - ep_closed_form(pg, q, p)
        formula = q * (q + 1) * 2**p + q * q * (q + 1) * (
            (q ** (p - 2) - 1) * ((q + 1) ** (p - 1) - 1) - 1
        )
        detail["formula"] = formula
        if diff != formula or not diff > 0:
            problems.append({"identity": "b", "difference": diff, "formula": formula})

    detail.update(difference=diff, constructed=q in POLARITY_ORDERS)
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
        if not built_ok:
            problems.append({"identity": "construction", "degrees": list(degs[:6])})

    return VerificationRecord.judged(not problems, "polarity", params, diff, problems, detail)


# -- suite plumbing -------------------------------------------------------------


class _TaskKind(NamedTuple):
    """check raises ValueError for the task's keywords where run would,
    without running anything."""

    check: Callable[..., object]
    run: Callable[..., list[VerificationRecord]]


_TASK_KINDS = {
    "theorem": _TaskKind(_theorem_plans, lambda **kw: run_grid([("theorem", kw)])),
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
    """Run one grid task in this process (picklable, for process pools).

    A theorem task's records come out p-major: for each p, every check
    (t2 is t2i and t2ii) and every k.  Whatever validate_task rejects, such
    as t4 with n < k+1 for every k, raises the same ValueError before
    anything is enumerated."""
    kind, kw = task
    return _task_kind(kind).run(**kw)


def validate_task(task: tuple[str, dict]) -> None:
    """Raise ValueError for a task that cannot run, before any of it runs:
    for theorems an unknown id, n below the least order, no p or p < 2, a k
    for a theorem taking none, an order enumerate_graphs refuses or no
    check to run (t4 with n < k+1 for every k); a lemma n of the wrong
    parity; a threshold or appendix window too small; a polarity q that is
    not a prime power."""
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


def suite_rows(suite: str) -> list[GridRow]:
    """The rows of one suite; all-desk is every suite in table order."""
    if suite == "all-desk":
        return [row for rows in SUITES.values() for row in rows]
    if suite in SUITES:
        return list(SUITES[suite])
    raise ValueError(f"unknown suite {suite!r}")


# -- grid runs -------------------------------------------------------------------


UNITS_PER_SPLIT = 8

_FamilyKey = tuple[int, bool]  # (n, c4_free)


class _Unit(NamedTuple):
    """The classes of one family below entries, visited by every probe
    grouped on the family."""

    n: int
    c4_free: bool
    probes: list[_Probe]
    entries: list[_Entry]


def _split_depth(n: int, c4_free: bool) -> int | None:
    """The edge count at which a pool splits the family into subtree
    units, or None to keep it one unit.

    A split pays from all graphs at n = 8 and C4-free graphs at n = 9: on
    a 2-vCPU VM `verify thm4 --jobs 2` took 0.49 s split against 0.67 s at
    --jobs 1, and `verify all-desk --jobs 2` 0.73 s against 0.96 s unsplit.
    At n = 7 it does not: `verify thm2 --n 4..7 --jobs 2` took 0.143 s with
    the family read in process against 0.184 s split (fresh processes,
    medians of 25 alternated rounds).  The subtree sizes are heavy tailed:
    the largest subtree below the frontier holds 20 per cent of the rest
    at n = 8 and, C4-free, 28 at n = 9, and the largest of the 8 units,
    the frontier dealt round robin, 23 to 29 per cent of the units' time."""
    if c4_free:
        return n - 2 if n >= 9 else None
    return n if n >= 8 else None


def run_unit(unit: _Unit | tuple[str, dict]) -> list:
    """One unit (picklable, for process pools): a subtree unit's trackers,
    one per probe, or a closed-form task's records."""
    if isinstance(unit, _Unit):
        return _probe_classes(unit.n, unit.probes, _expand(unit.entries, unit.c4_free)[0])
    return run_task(unit)


def run_grid(tasks: Sequence[tuple[str, dict]], workers: int = 1,
             pool: Callable | None = None) -> list[VerificationRecord]:
    """Every task's records in task order, as run_task gives them.

    pool(max_workers=k) must give a context manager whose map returns the
    results in item order, like a process pool's.  It is used, with k the
    smaller of workers and the number of units, when k is above 1;
    otherwise every unit runs in this process.  Every task is planned
    before any unit runs.
    """
    plans = [_theorem_plans(kw["thm"], kw["n"], kw["p_values"], kw.get("k_values"))
             if kind == "theorem" else None for kind, kw in tasks]
    families: dict[_FamilyKey, list[_Probe]] = {}
    for (_, kw), task_plans in zip(tasks, plans):
        for _, _, spec, pred in task_plans or ():
            p_values = tuple(kw["p_values"])
            # p >= 2 is planned, so p = 1 is scored only for the borrowed facts
            families.setdefault(_family_key(kw["n"], pred), []).append(
                _Probe(pred, p_values + (1,) if spec.borrowed_facts else p_values))
    pooled = pool is not None and workers > 1
    # the highest order of each kind, whose head caches every order below
    # it, and the largest first: all graphs before C4-free
    tops = {c4_free: (n, c4_free) for n, c4_free in sorted(families)}
    heads = {key: _head(*key, depth) for key in sorted(tops.values(), key=lambda key: key[1])
             if pooled and (depth := _split_depth(*key)) is not None}
    units: list = [_Unit(*key, families[key], entries[i::UNITS_PER_SPLIT])
                   for key, (_, entries) in heads.items() for i in range(UNITS_PER_SPLIT)]
    units += [task for task, task_plans in zip(tasks, plans) if task_plans is None]
    workers = min(workers, len(units)) if pooled else 1
    records: list[VerificationRecord] = []
    with pool(max_workers=workers) if workers > 1 else nullcontext() as executor:
        results = iter((executor.map if workers > 1 else map)(run_unit, units))
        found = {key: _probe_classes(key[0], probes,
                                     heads[key][0] if key in heads else _family(*key))
                 for key, probes in families.items()}
        for unit in units[:UNITS_PER_SPLIT * len(heads)]:
            for tracker, theirs in zip(found[unit.n, unit.c4_free], next(results)):
                tracker.merge(theirs)
        trackers = {key: iter(found_here) for key, found_here in found.items()}
        for (_, kw), task_plans in zip(tasks, plans):
            if task_plans is None:
                records += next(results)
            else:
                records += _p_major([_theorem_pass(plan, kw["n"], kw["p_values"],
                                                   next(trackers[_family_key(kw["n"], plan[3])]))
                                     for plan in task_plans])
    return records
