"""Grid runs: each graph family generated once, its work cut into units.

verify.run_task runs one grid task in the calling process, generating or
reusing the families its checks read.  run_grid runs a whole grid instead.
It groups the theorem plans of every task by the family they read, (n,
c4_free), so that each family is generated once per run, and one pass over
each class serves every plan grouped on its family.

The work is cut into units that do not depend on the worker count:
- each non-theorem task runs whole, as one unit;
- a family _split_depth keeps whole is one unit;
- any other family is generated down to its split depth by the caller
  (its head), and the frontier classes there are dealt into UNITS_PER_SPLIT
  units.  A unit expands the subtrees below its frontier classes.  The
  subtrees of McKay's augmentation tree are disjoint and each class is
  labelled by its own search, so the units together visit the family once.

A unit returns records or trackers, never classes.  Each family's trackers
are merged in unit order (ExtremalTracker.merge) and scored by
verify._theorem_pass, the scoring run_task uses, so the records do not
depend on who ran a unit.  This module starts no process: the caller passes
a pool (the CLI, a process pool) or runs every unit inline.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

from .enumeration import _Entry, _expand, _head
from .graphs import ep
from .verify import (VerificationRecord, _Trackers, _p_major, _Probe, _probe, _probe_classes,
                     _reads_c4_free, _theorem_pass, _theorem_plans, run_task)

UNITS_PER_SPLIT = 8

_Family = tuple[int, bool]  # (n, c4_free)


class _Unit(NamedTuple):
    """The classes of one family below entries (the whole family for None),
    visited by every probe grouped on the family."""

    n: int
    c4_free: bool
    probes: list[_Probe]
    entries: list[_Entry] | None


def _split_depth(n: int, c4_free: bool) -> int | None:
    """The edge count at which the family is split into subtree units, or
    None to keep it one unit.

    The subtree sizes are heavy tailed.  At these depths the head holds 4
    to 16 per cent of the family's classes, and the largest subtree below
    the frontier 29 per cent of the rest at n = 8 (3506 of 11910 classes),
    34 at n = 7 and, C4-free, 23 at n = 9."""
    if c4_free:
        return n - 2 if n >= 9 else None
    return n if n >= 7 else None


def _deal(entries: list[_Entry], parts: int) -> list[list[_Entry]]:
    """The frontier entries dealt round robin into parts, least e_2 first.

    The largest subtrees lie below frontier classes of small e_2, whose
    degrees are spread evenly: by e_2 the three largest rank 2, 3 and 9 of
    221 at n = 8, 2, 5 and 7 of 65 at n = 7 and, C4-free, 2, 4 and 5 of 103
    at n = 9, so they go to different parts.  Handed to two workers in
    unit order, the parts leave the busier worker 4 to 12 per cent fewer
    classes than the entries dealt unsorted (BENCH_18.json)."""
    ordered = sorted(entries, key=lambda entry: ep(entry[0], 2))
    return [ordered[i::parts] for i in range(parts)]


def run_unit(unit: _Unit | tuple[str, dict]) -> list:
    """One unit (picklable, for process pools): a family unit's trackers,
    one pair per probe, or a grid task's records."""
    if isinstance(unit, _Unit):
        if unit.entries is None:
            classes = _head(unit.n, unit.c4_free)[0]
        else:
            classes = _expand(unit.entries, unit.c4_free)[0]
        return _probe_classes(unit.n, unit.probes, classes)
    return run_task(unit)


def _merge(found: list[_Trackers], part: list[_Trackers]) -> None:
    for (tracker, restricted), (theirs, theirs_restricted) in zip(found, part):
        tracker.merge(theirs)
        if restricted is not None:
            restricted.merge(theirs_restricted)


def _run_units(mapper: Callable[..., Iterable], other: list[tuple[str, dict]],
               families: dict[_Family, list[_Probe]],
               split: dict[_Family, int]) -> tuple[list[list[VerificationRecord]], dict]:
    """The records of each non-theorem task, in grid order, and each
    family's trackers per probe.

    The heads are generated first and every unit goes out in one map: the
    split families' subtree units, the whole families, then the tasks.  The
    head classes are visited here while the units run."""
    heads = {key: _head(*key, depth) for key, depth in split.items()}
    parts = [(key, _Unit(*key, families[key], part))
             for key, (_, entries) in heads.items() for part in _deal(entries, UNITS_PER_SPLIT)]
    whole = [key for key in families if key not in split]
    results = iter(mapper(run_unit, [*(unit for _, unit in parts),
                                     *(_Unit(*key, families[key], None) for key in whole),
                                     *other]))
    found = {key: _probe_classes(key[0], families[key], classes)
             for key, (classes, _) in heads.items()}
    for key, _ in parts:
        _merge(found[key], next(results))
    found.update((key, next(results)) for key in whole)
    return list(results), found


def run_grid(tasks: Sequence[tuple[str, dict]], workers: int = 1,
             pool: Callable | None = None) -> list[VerificationRecord]:
    """Every task's records in task order, as run_task gives them.

    pool(max_workers=k) must give a context manager whose map returns the
    results in item order, like a process pool's.  It is used with k the
    smaller of workers and the number of units, when that is above 1;
    otherwise every unit runs in this process.
    """
    families: dict[_Family, list[_Probe]] = {}
    layout = []  # per task: None, or (plan, family, probe index) per plan
    for kind, kw in tasks:
        if kind != "theorem":
            layout.append(None)
            continue
        slots = []
        for plan in _theorem_plans(kw["thm"], kw["n"], kw["p_values"], kw.get("k_values")):
            key = (kw["n"], _reads_c4_free(plan[3]))
            probes = families.setdefault(key, [])
            slots.append((plan, key, len(probes)))
            probes.append(_probe(plan, kw["p_values"]))
        layout.append(slots)
    other = [task for task, slots in zip(tasks, layout) if slots is None]
    # the largest families first: all graphs before C4-free, higher orders first
    split = {key: depth for key in sorted(families, key=lambda key: (not key[1], key[0]),
                                          reverse=True)
             if (depth := _split_depth(*key)) is not None}
    units = len(other) + len(families) - len(split) + UNITS_PER_SPLIT * len(split)
    if pool is not None and min(workers, units) > 1:
        with pool(max_workers=min(workers, units)) as executor:
            chunks, found = _run_units(executor.map, other, families, split)
    else:
        chunks, found = _run_units(map, other, families, split)
    records: list[VerificationRecord] = []
    chunk = iter(chunks)
    for (_, kw), slots in zip(tasks, layout):
        if slots is None:
            records += next(chunk)
        else:
            records += _p_major([_theorem_pass(plan, kw["n"], kw["p_values"], found[key][i])
                                 for plan, key, i in slots])
    return records
