"""Grid runs: units of parents partition each family, trackers merge
exactly, and run_grid gives run_task's records whoever runs its units."""

from __future__ import annotations

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


def _split_union(n: int, c4_free: bool) -> Counter:
    """The classes of the units, as run_grid splits the family."""
    parents = enumeration._family(n - 1, c4_free)
    return Counter(chain.from_iterable(
        enumeration._children(n, parents[i::verify.UNITS_PER_SPLIT], c4_free)
        for i in range(verify.UNITS_PER_SPLIT)))


# the families a pool splits among those Tier-1 reads (all graphs up to
# n = 8, C4-free graphs up to n = 9)
SPLIT_FAMILIES = [(8, False), (9, True)]


def test_split_families():
    assert [(n, c4_free) for n in range(1, 10) for c4_free in (False, True)
            if (c4_free or n <= 8) and verify._splits(n, c4_free)] == SPLIT_FAMILIES


@pytest.mark.parametrize("n, c4_free", SPLIT_FAMILIES, ids=str)
def test_split_units_partition_the_family(n, c4_free):
    # each family as run_grid splits it, grown from the order below, holds
    # each class once.  The families' forms are pinned by test_enumeration's
    # checks of these cached families.
    assert verify._splits(n, c4_free)
    assert _split_union(n, c4_free) == Counter(enumeration._family(n, c4_free))


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


# one split family (C4-free at n=9; all graphs at n=7 too under split_n7),
# two read whole by two checks each (all graphs at n=7, C4-free at n=6), and
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


@pytest.mark.parametrize("pool, split7, split", [
    (None, False, []),
    (_ReversedPool, False, [(9, True)]),
    (_ReversedPool, True, [(7, False), (9, True)]),
], ids=["inline", "reversed", "reversed-n7-split"])
def test_grid_units_visit_each_class_once(monkeypatch, pool, split7, split):
    if split7:
        split_n7(monkeypatch)
    generated = count_generations(monkeypatch)
    expected = [record for task in TASKS for record in run_task(task)]
    # t2 and t4 share the n=7 family, c1 and t1 the C4-free one at n=6, which
    # t1 at n=9 grows from with the orders between
    assert sorted(generated) == sorted([(n, False) for n in range(1, 8)]
                                       + [(n, True) for n in range(1, 10)])
    generated.clear()
    # inline the grid reads the families cached above; given a pool of
    # two, each of the units of a split family generates its share of it,
    # and no family is generated whole; under split_n7 it splits two, and
    # merges the units of both
    assert verify.run_grid(TASKS, 2, pool) == expected
    assert sorted(generated) == [key for key in split for _ in range(verify.UNITS_PER_SPLIT)]


def test_family_below_a_split_family_is_read_whole(monkeypatch):
    # t4 at n=7 and 8, with n=7 splittable too (split_n7): a pool splits
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


def test_pool_runs_only_subtree_units_and_closed_form_tasks():
    # every family not split, the all-graph one at n=7 and the C4-free one
    # at n=6 here, is read in this process; a unit generates the children
    # of its parents or runs a closed-form task, whatever the class cache
    # holds
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
    assert verify.run_grid(TASKS, 2, UnitsOnlyPool) == expected
    assert ran == [verify.UNITS_PER_SPLIT + 20]
