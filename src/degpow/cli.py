"""Command-line front end: construct, evaluate, check, verify, report.

JSON reports are byte-identical across runs with the same parameters and
--jobs value; run timestamps are therefore omitted (null) unless
--timestamps is passed.

Exit status: 0 when every record passes, 1 when a verification record
fails (its witness is printed), 2 on bad input.  Bad input, a malformed
command line included, leaves every subcommand as a UsageError, which main
prints as one "degpow: error: ..." line on stderr.

The env var DEGPOW_MAX_N (default ENUM_FAST_CAP = 8, max 10) is the one
guard on how large an order a verify grid may enumerate: default grids
clamp to it and an explicit order above it is bad input.  The fixed
all-desk grid is not guarded.  The enumeration module's own limits (n=10
only for the C4-free and even-cycle-free classes) still apply.  Default
grids are verify.SUITES with the flags applied.  The closed-form scans
have fixed caps instead (SCAN_CAPS): a lemma order or a threshold or
appendix window above its cap is bad input, the all-desk grid included.
A --p, --k or --q axis (or the p range --pmax gives) longer than AXIS_CAP,
a row of more than AXIS_CAP tasks, or an exponent above P_CAP (for a
lemma, p*n above LEMMA_PN_CAP), is bad input too, and so is an ep --p
above P_CAP.  A range is read from its bounds, so one of any length is
refused as fast as a short one.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from datetime import datetime, timezone
from math import prod
from typing import NoReturn

from . import structure
from .enumeration import ENUM_HARD_CAP
from .families import FAMILIES
from .graphs import Graph, degree_sequence, ep, from_graph6, new_graph, to_graph6
from .verify import (SUITES, THRESHOLD_PAIRS, GridRow, VerificationRecord, grid_tasks,
                     run_grid, suite_rows, validate_task)

FORMAT_VERSION = 1


def _render_params(params: dict) -> str:
    """A record's params as k=v pairs sorted by key and joined by ';'."""
    return ";".join(f"{k}={v}" for k, v in sorted(params.items()))


def _render_witness(witness: object) -> str:
    """A witness as sorted-key JSON; a passing record's (None) as ''."""
    return "" if witness is None else json.dumps(witness, sort_keys=True)


def _render_csv(records: list[VerificationRecord]) -> str:
    """One row per record; the csv module writes a None value as ''."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["suite", "params", "verdict", "value", "witness_g6"])
    writer.writerows([r.check, _render_params(r.params), r.verdict, r.value,
                      _render_witness(r.witness)] for r in records)
    return buf.getvalue()


class UsageError(Exception):
    """Malformed command-line or environment input; main exits 2."""


@contextmanager
def _bad_input() -> Iterator[None]:
    """A ValueError raised on the user's input is a UsageError."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


@contextmanager
def _exact_digits() -> Iterator[None]:
    """Lift the interpreter's int-to-str digit limit (CPython 3.11, and
    3.10.7 on) while exact values are rendered, then restore it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# -- graph input ----------------------------------------------------------------


def _parse_edgelist(tokens: list[str]) -> Graph:
    n, *ends = map(int, tokens)
    if len(ends) % 2:
        raise ValueError("edge list must contain whitespace-separated pairs")
    return new_graph(n, list(zip(ends[::2], ends[1::2])))


def _read_graphs(args: argparse.Namespace) -> list[Graph]:
    if args.g6 is None and args.file is None:
        raise UsageError("provide a graph via --g6 or --file")
    with _bad_input():
        if args.g6 is not None:
            return [from_graph6(args.g6)]
        if args.file == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.file) as fh:
                    text = fh.read()
            except OSError as exc:
                raise UsageError(f"cannot read --file {args.file}: {exc.strerror}") from None
        # a graph6 byte is 63-126, never a digit; an edge list starts with its order
        tokens = text.split()
        if tokens and tokens[0].isdigit():
            return [_parse_edgelist(tokens)]
        graphs = [from_graph6(line.strip()) for line in text.splitlines() if line.strip()]
    if not graphs:
        raise UsageError(f"no graph in --file {args.file}")
    return graphs


def _emit_graph(g: Graph, out: str) -> str:
    if out == "graph6":
        return to_graph6(g).decode("ascii")
    lines = [str(g.n)] + [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines)


# -- subcommands ----------------------------------------------------------------

def cmd_construct(args: argparse.Namespace) -> int:
    row = FAMILIES.get(args.family)
    if row is None:
        raise UsageError(f"unknown family {args.family!r}; choose from {sorted(FAMILIES)}")
    if len(args.params) != len(row.params):
        raise UsageError(f"family {args.family} takes {' '.join(row.params)}")
    params = dict(zip(row.params, args.params))
    with _bad_input():
        row.check(**params)
        g = row.build(**params)
    print(_emit_graph(g, args.out))
    return 0


def cmd_ep(args: argparse.Namespace) -> int:
    if args.p < 1:
        raise UsageError(f"--p must be >= 1, got {args.p}")
    if args.p > P_CAP:
        raise UsageError(f"exponents stop at p={P_CAP}; got p={args.p}")
    values = [ep(g, args.p) for g in _read_graphs(args)]
    with _exact_digits():
        for value in values:
            print(value)
    return 0


# property -> (the --t/--k flag it takes, or None; the function of the graph
# and that flag's value)
_CHECKS: dict[str, tuple[str | None, Callable[..., object]]] = {
    "c4free": (None, lambda g: not structure.has_c4(g)),
    "even-cycle-free": (None, lambda g: not structure.has_even_cycle(g)),
    "connectivity": (None, structure.vertex_connectivity),
    "edge-connectivity": (None, structure.edge_connectivity),
    "min-t-conn": ("t", structure.is_minimally_t_connected),
    "min-t-edge-conn": ("t", structure.is_minimally_t_edge_connected),
    "degeneracy": (None, structure.degeneracy),
    "k-degenerate": ("k", structure.is_k_degenerate),
    "max-k-degenerate": ("k", structure.is_maximal_k_degenerate),
    "degrees": (None, degree_sequence),
}


def cmd_check(args: argparse.Namespace) -> int:
    flag, fn = _CHECKS[args.property]
    extra = () if flag is None else (getattr(args, flag),)
    if None in extra:
        raise UsageError(f"property {args.property} needs --{flag}")
    # every graph is evaluated before anything is printed
    with _bad_input():
        results = [fn(g, *extra) for g in _read_graphs(args)]
    for out in results:
        if isinstance(out, bool):
            print("true" if out else "false")
        elif isinstance(out, tuple):
            print(" ".join(map(str, out)))
        else:
            print(out)
    return 0


def _parse_range(flag: str, text: str) -> range | list[int]:
    """Accept '7', '4..9' (a range, never materialised), or '2,3,5'; an
    empty selection is an error.  A repeated value is kept once, where it
    first appears."""
    values: range | list[int]
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = range(int(lo), int(hi) + 1)
        else:
            values = list(dict.fromkeys(int(tok) for tok in text.split(",") if tok))
    except ValueError:
        values = []
    if not values:
        raise UsageError(f"--{flag} expects N, LO..HI or N,N,...; got {text!r}")
    return values


def _first_above(values: range | list[int], bound: int) -> int | None:
    """The first value above bound, in order; an (increasing) range is
    read from its bounds, so its length costs nothing."""
    if isinstance(values, range):
        first = max(values.start, bound + 1)
        first += (values.start - first) % values.step
        return first if first in values else None
    return next((v for v in values if v > bound), None)


# the largest order each closed-form scan kind may reach, as (task keyword,
# cap)
SCAN_CAPS = {"lemma": ("n", 4001), "threshold": ("n_max", 9000), "appendixA": ("n_max", 16_000)}
# the most values a --p, --k or --q axis (or --pmax's range) may hold: each
# is a task or a value every theorem class is scored at; and the most tasks
# a row's axes may make.  Both are checked before any task or tuple of the
# row is built.
AXIS_CAP = 1000
# the largest exponent: p*n at most LEMMA_PN_CAP for a lemma task, which
# computes about n/2 values of p log10(n) digits, else the top of the
# longest p axis from 2.  At every cap the costliest task takes 1-5 s on a
# 2-vCPU VM
P_CAP, LEMMA_PN_CAP = AXIS_CAP + 1, 2_000_000
ENUM_FAST_CAP = 8  # the default DEGPOW_MAX_N: the largest order a verify grid enumerates


def _size(values: range | list[int]) -> int:
    # read from a range's bounds, since len() refuses one past sys.maxsize
    if isinstance(values, range):
        return max(0, -((values.start - values.stop) // values.step))
    return len(values)


def _check_axis(flag: str, axis: str, values: range | list[int]) -> None:
    size = _size(values)
    if size > AXIS_CAP:
        raise UsageError(f"--{flag} takes at most {AXIS_CAP} values of {axis}; got {size}")


def _enum_guard() -> int:
    raw = os.environ.get("DEGPOW_MAX_N", str(ENUM_FAST_CAP))
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"DEGPOW_MAX_N must be an integer, got {raw!r}") from None
    return max(1, min(cap, ENUM_HARD_CAP))


def _admitted(default: object, values: range | list[int]) -> range | list[int]:
    """The explicit values an axis keeps: where a default range, extended
    upward, reaches (see verify.SUITES); all of them for a listed axis."""
    if not isinstance(default, range):
        return values
    if isinstance(values, range):
        # a parsed LO..HI steps by 1: start at the first admitted value
        first = max(values.start, default.start)
        return range(first + (default.start - first) % default.step, values.stop, default.step)
    return [v for v in values if v >= default.start and (v - default.start) % default.step == 0]


def _apply_flags(args: argparse.Namespace, row: GridRow, given: dict, guard: int) -> GridRow:
    """The row with the parsed --n/--p/--k/--q and --pmax/--nmax applied."""
    axes = {name: _admitted(default, given[name]) if name in given else default
            for name, default in row.axes.items()}
    fixed = dict(row.fixed)
    for key, flag in (("p_values", "p"), ("k_values", "k")):
        if key in fixed and flag in given:
            fixed[key] = tuple(given[flag])
    if args.pmax is not None and "pair" in fixed:
        axes["p"] = range(row.axes["p"].start, args.pmax + 1)
        if not axes["p"]:
            raise UsageError(f"--pmax must be >= {row.axes['p'].start}, got {args.pmax}")
        _check_axis("pmax", "p", axes["p"])
    if args.nmax is not None and "n_max" in fixed:
        fixed["n_max"] = args.nmax
    if row.kind == "theorem":
        # default orders clamp to the enumeration guard; explicit ones may not pass it
        too_large = _first_above(axes["n"], guard)
        if "n" in given and too_large is not None:
            raise UsageError(f"n={too_large} exceeds the enumeration guard; "
                             f"set DEGPOW_MAX_N={too_large}")
        axes["n"] = [n for n in axes["n"] if n <= guard]
    return GridRow(row.kind, fixed, axes)


def _check_cap(row: GridRow) -> None:
    """Refuse a closed-form scan row whose order or window passes its cap,
    or a row whose exponent passes its cap or whose axes make more than
    AXIS_CAP tasks."""
    if row.kind in SCAN_CAPS:
        key, cap = SCAN_CAPS[row.kind]
        too_large = _first_above(row.axes[key] if key in row.axes else [row.fixed[key]], cap)
        if too_large is not None:
            raise UsageError(f"{row.kind} scans stop at {key}={cap}; got {key}={too_large}")
    cap, at = P_CAP, ""
    if row.kind == "lemma" and (ns := row.axes["n"]):
        n = ns[-1] if isinstance(ns, range) else max(ns)
        cap, at = LEMMA_PN_CAP // n, f" at n={n}"
    too_large = _first_above(row.axes.get("p", row.fixed.get("p_values", ())), cap)
    if too_large is not None:
        raise UsageError(f"exponents stop at p={cap}{at}; got p={too_large}")
    tasks = prod(_size(values) for values in row.axes.values())
    if tasks > AXIS_CAP:
        raise UsageError(f"a {row.kind} row runs at most {AXIS_CAP} tasks; got {tasks}")


# the grid keys through which each verify flag reaches a GridRow; a JSON
# report's parameters are the suite and every one of these flags
_FLAG_KEYS = {"n": ("n",), "p": ("p", "p_values"), "k": ("k_values",), "q": ("q",),
              "pair": ("pair",), "pmax": ("pair",), "nmax": ("n_max",)}


def _build_tasks(args: argparse.Namespace) -> list[tuple[str, dict]]:
    rows = suite_rows(args.suite)
    # a flag that no row of the suite takes is an error; all-desk takes none
    keys = set() if args.suite == "all-desk" else {key for row in rows
                                                   for key in (*row.fixed, *row.axes)}
    for flag, flag_keys in _FLAG_KEYS.items():
        if getattr(args, flag) is not None and keys.isdisjoint(flag_keys):
            raise UsageError(f"verify {args.suite} takes no --{flag}")
    if args.p is not None and args.pmax is not None:
        raise UsageError("give --p or --pmax, not both")
    if args.suite != "all-desk":
        # flags and the guard apply to a named suite; the all-desk grid is
        # fixed, its n=9 search included
        guard = _enum_guard()
        given = {flag: _parse_range(flag, getattr(args, flag))
                 for flag in ("n", "p", "k", "q") if getattr(args, flag)}
        for flag in ("p", "k", "q"):
            if flag in given:
                _check_axis(flag, flag, given[flag])
        rows = [_apply_flags(args, row, given, guard) for row in rows
                if not args.pair or row.fixed.get("pair", args.pair) == args.pair]
    # every cap is checked on the rows' bounds, before any task is built
    for row in rows:
        _check_cap(row)
    tasks = [task for row in rows for task in grid_tasks(row)]
    if not tasks:
        raise UsageError("no verification tasks match the given grid")
    with _bad_input():
        for task in tasks:
            validate_task(task)
    return tasks


def _write(path: str, text: str, mode: str = "w") -> None:
    try:
        with open(path, mode) as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _process_pool(max_workers: int):
    """A process pool of max_workers, for run_grid: the module is imported
    only when a run starts a pool, so a run without one loads neither it
    nor logging."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    tasks = _build_tasks(args)
    # every report path must open for writing before the run, and none is
    # truncated until the write, so a refused run leaves existing reports intact
    for path in filter(None, (args.json, args.csv)):
        _write(path, "", "a")
    started = datetime.now(timezone.utc).isoformat() if args.timestamps else None
    # never more workers than CPUs to run them, nor (run_grid's cap) units
    records = run_grid(tasks, min(args.jobs, _cpus()), _process_pool)
    finished = datetime.now(timezone.utc).isoformat() if args.timestamps else None
    with _exact_digits():
        if args.json:
            parameters = {flag: getattr(args, flag) for flag in ("suite", *_FLAG_KEYS)}
            envelope = {"format_version": FORMAT_VERSION, "command": f"verify {args.suite}",
                        "parameters": parameters, "started_at": started,
                        "finished_at": finished, "records": [r.to_dict() for r in records]}
            _write(args.json, json.dumps(envelope, sort_keys=True, indent=2) + "\n")
        if args.csv:
            _write(args.csv, _render_csv(records))
        for rec in records:
            value = "" if rec.value is None else f" value={rec.value}"
            print(f"{rec.check} [{_render_params(rec.params)}] {rec.verdict}{value}")
            if rec.verdict == "fail":
                print(f"  witness: {_render_witness(rec.witness)}")
    passed = sum(rec.verdict == "pass" for rec in records)
    print(f"{passed}/{len(records)} checks passed")
    return 0 if passed == len(records) else 1


# -- parser ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a UsageError like any other bad input;
    the subparsers inherit this class."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="degpow",
        description="Exact degree-power computations, extremal families, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="build a named family member")
    p_con.add_argument("family")
    p_con.add_argument("params", nargs="*", type=int)
    p_con.add_argument("--out", choices=("graph6", "edgelist"), default="graph6")
    p_con.set_defaults(func=cmd_construct)

    def add_graph_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("--g6", help="graph6 string")
        p.add_argument("--file", help="file of graph6 lines or an edge list ('-' = stdin)")

    p_ep = sub.add_parser("ep", help="exact degree power of input graphs")
    add_graph_input(p_ep)
    p_ep.add_argument("--p", type=int, required=True)
    p_ep.set_defaults(func=cmd_ep)

    p_chk = sub.add_parser("check", help="evaluate a structural property")
    p_chk.add_argument("property", choices=_CHECKS)
    add_graph_input(p_chk)
    p_chk.add_argument("--t", type=int)
    p_chk.add_argument("--k", type=int)
    p_chk.set_defaults(func=cmd_check)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=(*SUITES, "all-desk"))
    p_ver.add_argument("--n")
    p_ver.add_argument("--p")
    p_ver.add_argument("--k")
    p_ver.add_argument("--q")
    p_ver.add_argument("--pair", choices=THRESHOLD_PAIRS)
    p_ver.add_argument("--pmax", type=int)
    p_ver.add_argument("--nmax", type=int)
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.add_argument("--json", help="write the report envelope as JSON")
    p_ver.add_argument("--csv", help="write the records as CSV")
    p_ver.add_argument("--timestamps", action="store_true",
                       help="fill run timestamps (breaks byte-identical output)")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"degpow: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
