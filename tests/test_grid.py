"""Grid runs: units of parents partition each family, trackers merge
exactly, and run_grid gives run_task's records whoever runs its units."""

from __future__ import annotations

import sys
import tracemalloc
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degpow import enumeration, verify
from degpow.enumeration import ExtremalTracker, SearchPredicate
from degpow.graphs import Graph
from degpow.verify import run_task

from helpers import count_generations, split_n7

# (n, c4_free, edge cap): several caps per family, from no edge to every pair;
# the n=8 all-graph family has a test of its own
SPLITS = sorted({(n, False, cap) for n in range(1, 8) for cap in (0, n // 2, n, 30)}
                | {(n, True, cap) for n in range(4, 10) for cap in (0, n - 2, n + 1)})


@pytest.mark.parametrize("n, c4_free, cap", SPLITS, ids=str)
def test_subtrees_partition_the_family(n, c4_free, cap):
    # each class of the order below is the root of a subtree, its children:
    # the subtrees are disjoint and hold the family.  However they are dealt
    # into units, a unit's children are its parents' subtrees, and the
    # units' trackers for a probe capped at cap edges merge into the
    # tracker over the whole family
    parents = enumeration._family(n - 1, c4_free) if n > 1 else (Graph(0, ()),)
    subtrees = [enumeration._children(n, [g], c4_free) for g in parents]
    family = enumeration._family(n, c4_free)
    assert Counter(chain.from_iterable(subtrees)) == Counter(family)
    probe = SearchPredicate(c4_free=c4_free, max_edges=cap)
    whole = ExtremalTracker(P_VALUES)
    enumeration._pass(n, family, [(probe, whole.visit)])
    for parts in range(1, 5):
        merged = ExtremalTracker(P_VALUES)
        for i in range(parts):
            unit = enumeration._children(n, parents[i::parts], c4_free)
            assert unit == list(chain.from_iterable(subtrees[i::parts]))
            tracker = ExtremalTracker(P_VALUES)
            enumeration._pass(n, unit, [(probe, tracker.visit)])
            merged.merge(tracker)
        assert _state(merged) == _state(whole)


# the families Tier-1 reads (all graphs up to n = 8, C4-free graphs up to
# n = 9), and those a grid splits among them
READ = [(n, False) for n in range(2, 9)] + [(n, True) for n in range(4, 10)]
SPLIT_FAMILIES = [(8, False)]


def _reading(n: int, c4_free: bool) -> list[tuple[str, dict]]:
    """A grid of one theorem task, which reads the family (n, c4_free)."""
    if c4_free:
        return [("theorem", {"thm": "c1", "n": n, "p_values": (2,)})]
    return [("theorem", {"thm": "t4", "n": n, "p_values": (2,), "k_values": (1,)})]


def test_split_families(monkeypatch):
    # with one worker from an empty class cache, then given a pool: a grid
    # grows a split family once per unit each time it reads it, and reads
    # every other family whole, generated once into the cache
    generated = count_generations(monkeypatch)
    for workers, pool in ((1, None), (2, _ReversedPool)):
        grown = {}
        for n, c4_free in READ:
            enumeration._family(n - 1, c4_free)
            generated.clear()
            verify.run_grid(_reading(n, c4_free), workers, pool)
            grown[n, c4_free] = list(generated)
        assert grown == {key: [key] * verify.UNITS_PER_SPLIT if key in SPLIT_FAMILIES
                         else [key] if pool is None else [] for key in READ}


@pytest.mark.parametrize("n, c4_free", [(8, False), (9, True)], ids=str)
def test_split_units_partition_the_family(monkeypatch, n, c4_free):
    # a grid reading the family, with one worker and given a pool, visits
    # each class once: the all-graph family at n = 8 through the units its
    # order below is dealt into, the C4-free one at n = 9 whole.  The
    # families' forms are pinned by test_enumeration's checks of these
    # cached families
    visited: Counter = Counter()
    probe = verify._probe_classes

    def visiting(order, plans, classes):
        classes = list(classes)
        visited.update(classes)
        return probe(order, plans, classes)

    monkeypatch.setattr(verify, "_probe_classes", visiting)
    for workers, pool in ((1, None), (2, _ReversedPool)):
        visited.clear()
        verify.run_grid(_reading(n, c4_free), workers, pool)
        assert visited == Counter(enumeration._family(n, c4_free))


def test_split_family_grown_by_units_with_one_worker(monkeypatch):
    # with one worker too the grid grows the all-graph family at n = 8 by
    # its units, one at a time, and neither caches it nor holds it whole:
    # the grid's traced peak, the orders below included, stays under what
    # the family's tuple, graphs and adjacency tuples alone take
    generated = count_generations(monkeypatch)
    tracemalloc.start()
    try:
        records = verify.run_grid([("theorem", {"thm": "t3", "n": 8, "p_values": (2,)})], 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [record.verdict for record in records] == ["pass"]
    assert generated == [(n, False) for n in range(1, 8)] + [(8, False)] * verify.UNITS_PER_SPLIT
    assert (7, False) in enumeration._CLASS_CACHE
    assert (8, False) not in enumeration._CLASS_CACHE
    family = enumeration._family(8, False)
    held = sys.getsizeof(family) + sum(sys.getsizeof(g) + sys.getsizeof(g.adj) for g in family)
    assert len(family) == 12346 and peak < held


# every class on 6 vertices with at most 7 edges; e_1 = 2m, so at p=1 every
# class of the largest edge count in a part is a maximiser
CLASSES = [g for g in enumeration._family(6, False) if g.edge_count() <= 7]
P_VALUES = (1, 2, 3)


def _state(tracker: ExtremalTracker) -> tuple:
    return tracker.best, {p: tracker.witnesses(p) for p in P_VALUES}, tracker.count


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda parts: st.tuples(
    st.lists(st.integers(0, parts - 1), min_size=len(CLASSES), max_size=len(CLASSES)),
    st.permutations(range(parts)))))
def test_merged_trackers_equal_one_tracker(split):
    # any split of the classes, empty parts included, merged in any order
    owner, order = split
    whole = ExtremalTracker(P_VALUES)
    parts = [ExtremalTracker(P_VALUES) for _ in order]
    for g, part in zip(CLASSES, owner):
        whole.visit(g)
        parts[part].visit(g)
    merged = ExtremalTracker(P_VALUES)
    for part in order:
        merged.merge(parts[part])
    assert _state(merged) == _state(whole)


def test_empty_trackers_merge_to_an_empty_tracker():
    merged = ExtremalTracker(P_VALUES)
    merged.merge(ExtremalTracker(P_VALUES))
    assert _state(merged) == ({1: None, 2: None, 3: None}, {1: (), 2: (), 3: ()}, 0)


# two families read by two checks each (all graphs at n=7, split under
# split_n7, and C4-free at n=6), one read by one (C4-free at n=9), and
# closed-form tasks between them
TASKS = [
    ("theorem", {"thm": "t2", "n": 7, "p_values": (2, 3)}),
    *[("lemma", {"lemma": "lemma1", "n": n, "p": 3}) for n in range(7, 47, 2)],
    ("theorem", {"thm": "t4", "n": 7, "p_values": (2,), "k_values": (1, 2, 3)}),
    ("theorem", {"thm": "c1", "n": 6, "p_values": (2, 3)}),
    ("theorem", {"thm": "t1", "n": 9, "p_values": (2,)}),
    ("theorem", {"thm": "t1", "n": 6, "p_values": (3,)}),
]


class _ReversedPool:
    """A pool that runs each map's items last first, in this process, and
    returns the results in item order."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        return reversed([fn(item) for item in reversed(items)])


@pytest.mark.parametrize("pool, split7", [
    (None, False),
    (_ReversedPool, False),
    (_ReversedPool, True),
    (None, True),
], ids=["inline", "reversed", "reversed-n7-split", "inline-n7-split"])
def test_grid_units_visit_each_class_once(monkeypatch, pool, split7):
    if split7:
        split_n7(monkeypatch)
    generated = count_generations(monkeypatch)
    expected = [record for task in TASKS for record in run_task(task)]
    # t2 and t4 read the n=7 family, c1 and t1 the C4-free one at n=6, which
    # t1 at n=9 grows from with the orders between.  A family read whole is
    # generated once; under split_n7 the n=7 family is grown by units each
    # time a task reads it, and never cached
    split = [(7, False)] * verify.UNITS_PER_SPLIT if split7 else []
    assert sorted(generated) == sorted([(n, False) for n in range(1, 7)] + split * 2
                                       + [(7, False)] * (not split7)
                                       + [(n, True) for n in range(1, 10)])
    generated.clear()
    # the grid reads the families cached above, and grows the split one by
    # its units again, inline or given a pool of two; no C4-free family is
    # split
    assert verify.run_grid(TASKS, 2, pool) == expected
    assert generated == split


def test_family_below_a_split_family_is_read_whole(monkeypatch):
    # t4 at n=7 and 8, with n=7 splittable too (split_n7): a grid splits
    # only the higher all-graph family, whose units take their parents from
    # the whole family at n=7, which is then read whole in this process,
    # not split too
    split_n7(monkeypatch)
    tasks = [("theorem", {"thm": "t4", "n": n, "p_values": (2,), "k_values": (1,)})
             for n in (7, 8)]
    expected = [record for task in tasks for record in run_task(task)]
    generated = count_generations(monkeypatch)
    assert verify.run_grid(tasks, 2, _ReversedPool) == expected
    assert generated == [(n, False) for n in range(1, 8)] + [(8, False)] * verify.UNITS_PER_SPLIT


def _refuse(*args):
    raise AssertionError("a unit reads a family")


def test_pool_runs_only_subtree_units_and_closed_form_tasks(monkeypatch):
    # every family not split, the C4-free ones at n = 6 and 9 here, is read
    # in this process; with the all-graph family at n = 7 split
    # (split_n7), a unit generates the children of its parents or runs a
    # closed-form task, whatever the class cache holds
    ran = []

    class UnitsOnlyPool(_ReversedPool):
        """Runs each map's items in this process with the family
        generator refused."""

        def map(self, fn, items):
            items = list(items)
            ran.append(len(items))
            with pytest.MonkeyPatch.context() as patch:
                for module in (enumeration, verify):
                    patch.setattr(module, "_family", _refuse)
                return [fn(item) for item in items]

    expected = [record for task in TASKS for record in run_task(task)]
    split_n7(monkeypatch)
    assert verify.run_grid(TASKS, 2, UnitsOnlyPool) == expected
    assert ran == [verify.UNITS_PER_SPLIT + 20]
