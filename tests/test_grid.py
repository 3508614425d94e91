"""Grid runs: subtree units partition each family, trackers merge exactly,
and run_grid gives run_task's records whoever runs its units."""

from __future__ import annotations

import hashlib
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degpow import enumeration, verify
from degpow.enumeration import ExtremalTracker, SearchPredicate, canonical_form
from degpow.verify import run_task

from helpers import count_generations, split_n7
from test_enumeration import PINNED_CLASS_SETS

# (n, c4_free, frontier depth): several depths per family, _split_depth's
# among them; the n=8 all-graph family has a test of its own
SPLITS = sorted({(n, False, depth) for n in range(1, 8) for depth in (0, n // 2, n, 30)}
                | {(n, True, depth) for n in range(4, 10) for depth in (0, n - 2, n + 1)})


@cache
def _forms(n: int, c4_free: bool) -> dict:
    """Each class of the family -> its min-lex form."""
    return {g: canonical_form(g) for g in enumeration._family(n, c4_free)}


@pytest.mark.parametrize("n, c4_free, depth", SPLITS, ids=str)
def test_subtrees_partition_the_family(n, c4_free, depth):
    head, entries = enumeration._head(n, c4_free, depth)
    # every head class, or for all graphs its complement, has an isolated
    # vertex or at most depth edges; a frontier entry with more edges is the
    # order below's class plus a vertex, and the unit expanding a frontier
    # entry visits it, not the head
    full = n * (n - 1) // 2
    assert all(0 in g.adj or g.edge_count() <= depth
               or not c4_free and (full - g.edge_count() <= depth
                                   or any(a | 1 << v == (1 << n) - 1 for v, a in enumerate(g.adj)))
               for g in head)
    assert all((m == depth or m > depth and 0 in g.adj) and g not in head
               for g, _, m in entries)
    below = {entry[0]: enumeration._expand([entry], c4_free)[0] for entry in entries}
    assert len(below) == len(entries)
    family = Counter(enumeration._family(n, c4_free))
    for parts in range(1, 5):
        dealt = [entries[i::parts] for i in range(parts)]
        assert len(dealt) == parts
        assert Counter(entry[0] for part in dealt for entry in part) == Counter(list(below))
        # the head and the parts' subtrees hold each class of the family once
        union = Counter(head)
        for part in dealt:
            classes = [g for entry in part for g in below[entry[0]]]
            if n <= 6:
                # as a unit expands them: all its entries at once
                assert Counter(enumeration._expand(part, c4_free)[0]) == Counter(classes)
            union.update(classes)
        assert union == family
    forms = _forms(n, c4_free)
    for key, (count, digest) in PINNED_CLASS_SETS.items():
        if key[0] == n and (key[1] or key[2]) == c4_free:
            pred = SearchPredicate(c4_free=key[1], even_cycle_free=key[2], max_edges=key[3])
            cut: list[bytes] = []
            enumeration._pass(n, union, [(pred, lambda g: cut.append(forms[g]))])
            cut.sort()
            assert len(cut) == count
            assert hashlib.sha256(b"".join(cut)).hexdigest() == digest


def _split_union(n: int, c4_free: bool) -> Counter:
    """The classes of the head and of the units, each expanding its
    entries at once, as run_grid splits the family."""
    head, entries = enumeration._head(n, c4_free, verify._split_depth(n, c4_free))
    union = Counter(head)
    for i in range(verify.UNITS_PER_SPLIT):
        union.update(enumeration._expand(entries[i::verify.UNITS_PER_SPLIT], c4_free)[0])
    return union


# the families _split_depth splits among those Tier-1 reads (all graphs up
# to n = 8, C4-free graphs up to n = 9), with their frontier depths
SPLIT_DEPTHS = {(8, False): 8, (9, True): 7}


def test_split_depths():
    depths = {(n, c4_free): verify._split_depth(n, c4_free)
              for n in range(1, 10) for c4_free in (False, True) if c4_free or n <= 8}
    assert {key: depth for key, depth in depths.items() if depth is not None} == SPLIT_DEPTHS


@pytest.mark.parametrize("n, c4_free", list(SPLIT_DEPTHS), ids=str)
def test_split_units_partition_the_family(n, c4_free):
    # each family as run_grid splits it, grown from the order below, holds
    # each class once.  The families' forms are pinned by test_enumeration's
    # checks of these cached families.
    assert verify._split_depth(n, c4_free) == SPLIT_DEPTHS[n, c4_free]
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


@pytest.mark.parametrize("pool, split7, heads", [
    (None, False, []),
    (_ReversedPool, False, [(9, True)]),
    (_ReversedPool, True, [(7, False), (9, True)]),
], ids=["inline", "reversed", "reversed-n7-split"])
def test_grid_units_visit_each_class_once(monkeypatch, pool, split7, heads):
    if split7:
        split_n7(monkeypatch)
    generated = count_generations(monkeypatch)
    expected = [record for task in TASKS for record in run_task(task)]
    # t2 and t4 share the n=7 family, c1 and t1 the C4-free one at n=6, which
    # t1 at n=9 grows from with the orders between
    assert sorted(generated) == sorted([(n, False) for n in range(1, 8)]
                                       + [(n, True) for n in range(1, 10)])
    generated.clear()
    # inline the grid reads the families cached above; a pool of two
    # generates the heads of the families it splits, and no family whole;
    # under split_n7 it splits two, and merges the units of both
    assert verify.run_grid(TASKS, 2, pool) == expected
    assert sorted(generated) == heads


def test_split_family_a_head_caches_is_read_whole(monkeypatch):
    # t4 at n=7 and 8, with n=7 splittable too (split_n7): a pool splits
    # only the higher all-graph family, and the head at n=8 grows from the
    # whole family at n=7, which is then read whole in this process, not
    # split into a head and units
    split_n7(monkeypatch)
    tasks = [("theorem", {"thm": "t4", "n": n, "p_values": (2,), "k_values": (1,)})
             for n in (7, 8)]
    expected = [record for task in tasks for record in run_task(task)]
    generated = count_generations(monkeypatch)
    assert verify.run_grid(tasks, 2, _ReversedPool) == expected
    assert generated[0] == (8, False)
    assert sorted(generated) == [(n, False) for n in range(1, 9)]



def _refuse(*args):
    raise AssertionError("a unit reads a family")


def test_pool_runs_only_subtree_units_and_closed_form_tasks():
    # every family not split, the all-graph one at n=7 and the C4-free one
    # at n=6 here, is read in this process; a unit expands the subtrees
    # below its entries or runs a closed-form task, whatever the class cache
    # holds
    ran = []

    class UnitsOnlyPool(_ReversedPool):
        """Runs each map's items in this process with the family and head
        generators refused."""

        def map(self, fn, items):
            items = list(items)
            ran.append(len(items))
            with pytest.MonkeyPatch.context() as patch:
                for module in (enumeration, verify):
                    patch.setattr(module, "_family", _refuse)
                    patch.setattr(module, "_head", _refuse)
                return [fn(item) for item in items]

    expected = [record for task in TASKS for record in run_task(task)]
    assert verify.run_grid(TASKS, 2, UnitsOnlyPool) == expected
    assert ran == [verify.UNITS_PER_SPLIT + 20]
