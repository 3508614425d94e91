#!/usr/bin/env python3
"""Mutation table: each row breaks one rule and names the tests that catch it.

    python scripts/mutants.py            # every row
    python scripts/mutants.py wheel-3    # the named rows only

The rows run one at a time in a temporary copy of the repository.  A row
replaces its exact `old` snippet in `file` with `new`, runs its tests one
after another, and restores the file.  It prints `killed` when every test
it names fails, and `survived` with the tests that still pass otherwise.
The exit status is 1 when a row survived.  Snippets must occur exactly
once in their file; the test suite checks that without running a row.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids that must fail


STRUCTURE = "src/degpow/structure.py"
ENUMERATION = "src/degpow/enumeration.py"
VERIFY = "src/degpow/verify.py"

MUTANTS = (
    Mutant("t2ii-odd-n-friendship", VERIFY,
           "lambda n, k: (_K2, _F) if n % 2 else (_K2,)",
           "lambda n, k: (_K2, _F) if not n % 2 else (_K2,)",
           ("tests/test_verify.py::TestBruteForce::test_t2ii_even_n_excludes_friendship",
            "tests/test_verify.py::TestBruteForce::test_t2ii_odd_n_friendship_wins_small")),
    Mutant("verdict-ignores-ok", VERIFY,
           '"pass" if ok else "fail"', '"pass"',
           ("tests/test_verify.py::TestVerificationRecord::test_judged_verdict_follows_ok",
            "tests/test_failing_records.py::test_failing_record_pinned")),
    Mutant("pass-keeps-witness", VERIFY,
           "None if ok else witness", "witness",
           ("tests/test_verify.py::TestVerificationRecord::test_judged_verdict_follows_ok",
            "tests/test_cli.py::TestVerify::test_report_digests_pinned")),
    # F_n's leaf at even n fails the mutated no-isolated-vertex test
    Mutant("c1-min-degree-filter", VERIFY,
           "all(all(g.adj) for g in", "all(all(a & (a - 1) for a in g.adj) for g in",
           ("tests/test_acceptance.py::test_criterion_04_corollary1_brute_force",
            "tests/test_verify.py::test_borrowed_facts_match_a_restricted_tracker")),
    Mutant("max-edges-not-halved", VERIFY,
           "(tracker.best[1] or 0) // 2", "(tracker.best[1] or 0)",
           ("tests/test_acceptance.py::test_criterion_04_corollary1_brute_force",
            "tests/test_verify.py::test_borrowed_facts_match_a_restricted_tracker")),
    Mutant("even-cycle-shared-edge", STRUCTURE,
           "if (on_cycle >> x) & 1:", "if False:",
           ("tests/test_structure.py::TestEvenCycle::test_against_dfs_oracle_small",
            "tests/test_structure.py::TestEvenCycle::test_against_dfs_oracle_sparse")),
    Mutant("even-cycle-parity", STRUCTURE,
           "if (depth[v] - depth[w]) % 2:", "if False:",
           ("tests/test_structure.py::TestEvenCycle::test_cycle_parity",
            "tests/test_structure.py::TestEvenCycle::test_against_dfs_oracle_small")),
    Mutant("loose-vertex-threshold", ENUMERATION,
           "if not adj[v] & unassigned:", "if (adj[v] & unassigned).bit_count() <= 1:",
           ("tests/test_enumeration.py::TestCanonicalForm::"
            "test_search_is_global_minimum_every_class_n6",
            "tests/test_enumeration.py::TestCanonicalForm::"
            "test_search_is_global_minimum_forests_n7")),
    Mutant("neighbours-split-first", ENUMERATION,
           """                if mask & outside:
                    split.append((mask & outside, value << 1))
                if mask & av:
                    split.append((mask & av, (value << 1) | 1))""",
           """                if mask & av:
                    split.append((mask & av, (value << 1) | 1))
                if mask & outside:
                    split.append((mask & outside, value << 1))""",
           ("tests/test_enumeration.py::TestCanonicalForm::"
            "test_search_is_global_minimum_every_class_n6",)),
    Mutant("tie-leaf-no-automorphism", ENUMERATION,
           "                gens.append(gamma)\n            return\n", "            return\n",
           ("tests/test_enumeration.py::TestClassSets::test_pinned_class_set",
            "tests/test_enumeration.py::TestLabelSearch::test_generators_give_the_pair_orbits")),
    Mutant("split-by-index", ENUMERATION,
           "for count in sorted(parts):", "for count in sorted(parts, key=parts.get):",
           ("tests/test_enumeration.py::TestClassSets::test_pinned_class_set",
            "tests/test_enumeration.py::TestLabelSearch::"
            "test_certificate_invariant_under_relabelling")),
    Mutant("degree-test-too-strict", ENUMERATION,
           "at_least[deg[v] + 2] and not adj[v] & at_least[deg[u] + 2]",
           "at_least[deg[v] + 1] and not adj[v] & at_least[deg[u] + 1]",
           ("tests/test_enumeration.py::TestClassSets::test_pinned_class_set",
            "tests/test_enumeration.py::TestAugmentation::"
            "test_degree_rule_drops_only_rejected_orbits")),
    Mutant("degree-test-one-sided", ENUMERATION,
           " and not adj[v] & at_least[deg[u] + 2]", "",
           ("tests/test_enumeration.py::TestAugmentation::test_work_counts_pinned",
            "tests/test_enumeration.py::TestAugmentation::"
            "test_degree_rule_drops_only_rejected_orbits")),
    Mutant("middle-level-mirrored", ENUMERATION,
           "(not c4_free and 2 * m < g.n * (g.n - 1) // 2",
           "(not c4_free and 2 * m <= g.n * (g.n - 1) // 2",
           ("tests/test_enumeration.py::TestClassSets::test_pinned_class_set",
            "tests/test_enumeration.py::TestClassSets::test_complements_mirror_the_family")),
    Mutant("expanded-past-the-middle", ENUMERATION,
           """        if not c4_free and 2 * (m + 1) > g.n * (g.n - 1) // 2:
            continue
""", "",
           ("tests/test_enumeration.py::TestClassSets::test_pinned_class_set",
            "tests/test_enumeration.py::TestClassSets::test_complements_mirror_the_family")),
    # a class with a dominating vertex has a complement with an isolated
    # vertex, which the order below already gave
    Mutant("dominating-complement-kept", ENUMERATION,
           "\n            and all(a | 1 << v != full for v, a in enumerate(g.adj))", "",
           ("tests/test_enumeration.py::TestClassSets::test_pinned_class_set",
            "tests/test_enumeration.py::TestClassSets::test_complements_mirror_the_family")),
    # a child with an isolated vertex is the order below's class plus a vertex
    Mutant("parent-not-covering", ENUMERATION,
           "        and not isolated & ~(1 << u | 1 << v)\n", "",
           ("tests/test_enumeration.py::TestClassSets::test_pinned_class_set",
            "tests/test_enumeration.py::TestClassSets::"
            "test_isolated_vertex_classes_are_the_order_below")),
    # every tie on the deletion invariant then costs a search
    Mutant("cell-key-ignored", ENUMERATION,
           "return sorted((index[pair[0]], index[pair[1]]))", "return [0, 0]",
           ("tests/test_enumeration.py::TestAugmentation::test_work_counts_pinned",)),
    # the cut rows name a test on each route through _pass: enumerate_graphs
    # or extremal_ep, and run_task or run_grid
    Mutant("even-cycles-kept", ENUMERATION,
           " or ecf and structure.has_even_cycle(g)", "",
           ("tests/test_enumeration.py::TestClassSets::"
            "test_pinned_class_set_by_route",
            "tests/test_acceptance.py::test_criterion_04_corollary1_brute_force")),
    Mutant("edge-cap-not-cut", ENUMERATION,
           "g.edge_count() > cap or ", "",
           ("tests/test_enumeration.py::TestClassSets::test_pinned_class_set",
            "tests/test_cli.py::TestVerify::test_report_digests_pinned",
            "tests/test_acceptance.py::test_criterion_03_theorem1_brute_force")),
    Mutant("capped-probe-uncut", ENUMERATION,
           "(ecf or cap < full,", "(ecf,",
           ("tests/test_enumeration.py::TestClassSets::test_pinned_class_set",
            "tests/test_cli.py::TestVerify::test_report_digests_pinned")),
    # a leaf bound whose row names no test admits every class
    Mutant("degenerate-leaf-untested", ENUMERATION,
           '("degenerate", 1, "{}_degenerate", "is_k_degenerate")',
           '("degenerate", 1, "{}_degenerate", None)',
           ("tests/test_verify.py::TestBruteForce::test_t4",
            "tests/test_acceptance.py::test_criterion_07_theorem4_brute_force")),
    Mutant("min-degree-least-raised", ENUMERATION,
           '("min_degree", 0,', '("min_degree", 1,',
           ("tests/test_enumeration.py::TestOrderAndCapChecks::test_least_bounds_admitted",
            "tests/test_enumeration.py::TestOrderAndCapChecks::"
            "test_bounds_refused_before_generation")),
    Mutant("merge-drops-tied-witnesses", ENUMERATION,
           "self.maximisers[p] += other.maximisers[p]", "pass",
           ("tests/test_grid.py::test_merged_trackers_equal_one_tracker",)),
    # a subtree unit visits its frontier classes only
    Mutant("frontier-not-expanded", VERIFY,
           "_expand(unit.entries, unit.c4_free)[0])",
           "[entry[0] for entry in unit.entries])",
           ("tests/test_grid.py::test_grid_units_visit_each_class_once",
            "tests/test_cli.py::test_report_digests_pinned_with_a_process_pool")),
    # with no pool every family is read whole from the class cache
    Mutant("split-without-a-pool", VERIFY,
           "if pooled and (depth := _split_depth(*key)) is not None}",
           "if (depth := _split_depth(*key)) is not None}",
           ("tests/test_verify.py::TestSuites::test_checks_on_one_family_share_its_generation",
            "tests/test_grid.py::test_grid_units_visit_each_class_once")),
    # a family below the top of its kind is split too, and its head grown
    # again, though the top's head cached it
    Mutant("split-below-a-split-family", VERIFY,
           "for key in sorted(tops.values(), key=lambda key: key[1])",
           "for key in sorted(families, key=lambda key: key[1])",
           ("tests/test_grid.py::test_split_family_a_head_caches_is_read_whole",)),
    # the all-graph family at n = 7 is split, and a pool started, though
    # reading it in this process is faster
    Mutant("all-graphs-split-from-n7", VERIFY,
           "return n if n >= 8 else None", "return n if n >= 7 else None",
           ("tests/test_grid.py::test_split_depths",
            "tests/test_cli.py::test_pool_capped_at_task_count",
            "tests/test_cli.py::test_pool_module_loaded_only_when_a_pool_starts")),
    # the second split family's units are read as closed-form records
    Mutant("merge-first-split-family-only", VERIFY,
           "units[:UNITS_PER_SPLIT * len(heads)]", "units[:UNITS_PER_SPLIT]",
           ("tests/test_grid.py::test_grid_units_visit_each_class_once",)),
    Mutant("unsplit-family-not-cached", VERIFY,
           "heads[key][0] if key in heads else _family(*key))",
           "heads[key][0] if key in heads else _head(*key)[0])",
           ("tests/test_verify.py::TestSuites::test_checks_on_one_family_share_its_generation",
            "tests/test_grid.py::test_grid_units_visit_each_class_once")),
    Mutant("forest-edge-count", STRUCTURE,
           "if ends >= 2 * comp.bit_count():", "if False:",
           ("tests/test_structure.py::TestMinimalityPrefilters::"
            "test_forest_condition_against_cycle_oracle",)),
    Mutant("zero-label-accepted", STRUCTURE,
           "return 0 not in once and once == twice", "return once == twice",
           ("tests/test_structure.py::TestMinimalityPrefilters::"
            "test_agree_with_flows_on_every_class",)),
    Mutant("single-label-accepted", STRUCTURE,
           "return 0 not in once and once == twice", "return 0 not in once",
           ("tests/test_structure.py::TestMinimality::test_against_definition_exhaustive",)),
    Mutant("forest-on-edge-predicate", STRUCTURE,
           """    if _min_degree(g) != 2:
        return False""",
           """    if _min_degree(g) != 2 or not _high_degree_forest(g, 2):
        return False""",
           ("tests/test_structure.py::TestMinimalityPrefilters::"
            "test_edge_fixtures_without_the_forest",)),
    Mutant("paths-without-reverse-residual", STRUCTURE,
           "fresh = ((net[u] & ~flow[u]) | back[u]) & unseen",
           "fresh = net[u] & ~flow[u] & unseen",
           ("tests/test_structure.py::TestMinimalityPrefilters::"
            "test_agree_with_flows_on_every_class",)),
    Mutant("vertex-pairs-without-neighbours", STRUCTURE,
           "    pairs += [(x, y) for x in _bits(adj[v]) for y in _bits(adj[v] & ~adj[x]) if y > x]\n",
           "",
           ("tests/test_structure.py::TestConnectivity::"
            "test_only_cut_contains_the_least_degree_vertex",
            "tests/test_acceptance.py::test_criterion_11c_vertex_connectivity_oracle")),
    Mutant("part-ii-built-up-front", VERIFY,
           "return t1, t2, _PartII(n, o)", "return t1, t2, dict(_PartII(n, o))",
           ("tests/test_verify.py::TestLemmaTuples::"
            "test_record_at_the_lemma_cap_holds_one_tuple_at_a_time",)),
    # a run that starts no pool loads concurrent.futures and logging too
    Mutant("pool-module-imported-up-front", "src/degpow/cli.py",
           "from math import prod\n",
           "from concurrent.futures import ProcessPoolExecutor\nfrom math import prod\n",
           ("tests/test_cli.py::test_pool_module_loaded_only_when_a_pool_starts",)),
    Mutant("parse-range-materialised", "src/degpow/cli.py",
           "values = range(int(lo), int(hi) + 1)", "values = list(range(int(lo), int(hi) + 1))",
           ("tests/test_cli.py::TestVerify::test_range_flag_is_never_materialised",)),
    Mutant("k-and-q-axes-uncapped", "src/degpow/cli.py",
           'for flag in ("p", "k", "q"):', 'for flag in ("p",):',
           ("tests/test_cli.py::TestVerify::"
            "test_axis_past_its_cap_refused_in_bounded_time_and_memory",)),
    # len() refuses a range past sys.maxsize with an OverflowError
    Mutant("axis-length-by-len", "src/degpow/cli.py",
           "    if isinstance(values, range):\n        return max(0, -((values.start - values.stop)"
           " // values.step))\n", "",
           ("tests/test_cli.py::test_bad_input_exits_two_with_one_line",
            "tests/test_cli_fuzz.py::test_main_exits_zero_one_or_two")),
    Mutant("first-above-by-len", "src/degpow/cli.py",
           "return first if first in values else None",
           "return first if first < values.start + len(values) * values.step else None",
           ("tests/test_cli.py::test_bad_input_exits_two_with_one_line",
            "tests/test_cli_fuzz.py::test_main_exits_zero_one_or_two")),
    Mutant("ep-exponent-uncapped", "src/degpow/cli.py",
           """    if args.p > P_CAP:
        raise UsageError(f"exponents stop at p={P_CAP}; got p={args.p}")
""", "",
           ("tests/test_cli.py::TestEp::test_p_above_cap_exits_two_before_reading",)),
    Mutant("exponent-uncapped", "src/degpow/cli.py",
           """    if too_large is not None:
        raise UsageError(f"exponents stop at p={cap}{at}; got p={too_large}")
""", "",
           ("tests/test_cli.py::TestVerify::test_scan_above_its_cap_exits_two_before_running",)),
    Mutant("task-count-uncapped", "src/degpow/cli.py",
           """    if tasks > AXIS_CAP:
        raise UsageError(f"a {row.kind} row runs at most {AXIS_CAP} tasks; got {tasks}")
""", "",
           ("tests/test_cli.py::TestVerify::test_scan_above_its_cap_exits_two_before_running",)),
    Mutant("exact-digits-not-lifted", "src/degpow/cli.py",
           "    sys.set_int_max_str_digits(0)\n", "",
           ("tests/test_cli.py::TestVerify::test_value_past_the_digit_limit_reported_whole",
            "tests/test_cli.py::TestEp::test_value_past_the_digit_limit_printed_whole")),
    Mutant("wheel-3", "src/degpow/families.py",
           "domain=lambda n: n >= 4", "domain=lambda n: n >= 3",
           ("tests/test_families.py::TestConstructors::test_parameter_validation",
            "tests/test_families.py::test_cli_error_just_outside_each_domain")),
    Mutant("friendship-even-leaf", "src/degpow/families.py",
           "(n - 2) * 2**p + 1", "(n - 2) * 2**p",
           ("tests/test_families.py::test_closed_form_matches_construction_everywhere",
            "tests/test_families.py::test_closed_form_examples")),
    Mutant("split-k-n-order", "src/degpow/families.py",
           'params=("n", "k")', 'params=("k", "n")',
           ("tests/test_cli.py::TestConstruct::test_split_params",)),
)


def passing_tests(mutant: Mutant, copy: Path) -> list[str]:
    """Apply the mutant in the copy, run its tests, restore the file, and
    return the tests that passed."""
    path = copy / mutant.file
    source = path.read_text()
    if source.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: the old snippet must occur once in {mutant.file}")
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    path.write_text(source.replace(mutant.old, mutant.new))
    passed = []
    try:
        for test in mutant.tests:
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test],
                cwd=copy, env=env, capture_output=True, text=True)
            if run.returncode not in (0, 1):
                raise SystemExit(f"{mutant.name}: pytest could not run {test}\n{run.stdout}")
            if run.returncode == 0:
                passed.append(test)
    finally:
        path.write_text(source)
    return passed


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutant(s): {', '.join(sorted(unknown))}")
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-out"))
        for mutant in MUTANTS:
            if names and mutant.name not in names:
                continue
            passed = passing_tests(mutant, copy)
            survived += bool(passed)
            verdict = "survived: " + " ".join(passed) if passed else "killed"
            print(f"{mutant.name}: {verdict}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
