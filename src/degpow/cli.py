"""Command-line front end: construct, evaluate, check, verify, report.

JSON reports are byte-identical across runs with the same parameters and
--jobs value; run timestamps are therefore omitted (null) unless
--timestamps is passed.

Exit status: 0 when every record passes, 1 when a verification record
fails (its witness is printed), 2 on bad input.  Bad input leaves every
subcommand as a UsageError, which main prints as one "degpow: error: ..."
line on stderr.

The env var DEGPOW_MAX_N (default ENUM_FAST_CAP = 8, max 10) is the one
guard on how large an order a verify grid may enumerate: default grids
clamp to it and an explicit order above it is bad input.  The fixed
all-desk grid is not guarded.  The enumeration module's own limits (n=10
only for the C4-free and even-cycle-free classes) still apply.  Default
grids are verify.SUITES with the flags applied.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections.abc import Callable, Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone

from . import structure
from .enumeration import ENUM_FAST_CAP, ENUM_HARD_CAP
from .families import FamilyId, construct
from .graphs import Graph, degree_sequence, ep, from_graph6, new_graph, to_graph6
from .verify import (SUITES, THRESHOLD_PAIRS, GridRow, VerificationRecord, grid_tasks, run_task,
                     suite_tasks, validate_task)

FORMAT_VERSION = 1


@dataclass
class ReportEnvelope:
    """Schema-versioned wrapper around a verification run's records."""

    command: str
    parameters: dict
    records: list[VerificationRecord]
    started_at: str | None = None
    finished_at: str | None = None

    def to_json(self) -> str:
        payload = {
            "format_version": FORMAT_VERSION,
            "command": self.command,
            "parameters": self.parameters,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "records": [r.to_dict() for r in self.records],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "params", "verdict", "value", "witness_g6"])
        for r in self.records:
            d = r.to_dict()
            params = ";".join(f"{k}={v}" for k, v in sorted(d["params"].items()))
            value = "" if d["value"] is None else str(d["value"])
            witness = "" if d["witness"] is None else json.dumps(d["witness"], sort_keys=True)
            writer.writerow([d["check"], params, d["verdict"], value, witness])
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


# -- graph input ----------------------------------------------------------------


def _parse_edgelist(text: str) -> Graph:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty edge-list input")
    n = int(tokens[0])
    rest = tokens[1:]
    if len(rest) % 2:
        raise ValueError("edge list must contain whitespace-separated pairs")
    edges = [(int(rest[i]), int(rest[i + 1])) for i in range(0, len(rest), 2)]
    return new_graph(n, edges)


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
        fmt = args.format
        if fmt == "auto":
            first = text.split(None, 1)
            fmt = "edgelist" if first and first[0].isdigit() else "g6"
        if fmt == "edgelist":
            return [_parse_edgelist(text)]
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

_FAMILY_ARITY = {"star": 1, "cycle": 1, "friendship": 1, "wheel": 1, "polarity": 1,
                 "complete_bipartite": 2, "split": 2}


def cmd_construct(args: argparse.Namespace) -> int:
    name, params = args.family, args.params
    if name not in _FAMILY_ARITY:
        raise UsageError(f"unknown family {name!r}; choose from {sorted(_FAMILY_ARITY)}")
    if len(params) != _FAMILY_ARITY[name]:
        raise UsageError(f"family {name} takes {_FAMILY_ARITY[name]} parameter(s)")
    if name == "complete_bipartite":
        family, size = FamilyId(name, t=params[0]), params[1]
    elif name == "split":
        family, size = FamilyId(name, k=params[1]), params[0]
    else:
        family, size = FamilyId(name), params[0]
    with _bad_input():
        g = construct(family, size)
    print(_emit_graph(g, args.out))
    return 0


def cmd_ep(args: argparse.Namespace) -> int:
    if args.p < 1:
        raise UsageError(f"--p must be >= 1, got {args.p}")
    for g in _read_graphs(args):
        print(ep(g, args.p))
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


def _parse_range(flag: str, text: str) -> list[int]:
    """Accept '7', '4..9', or '2,3,5'; an empty selection is an error.  A
    repeated value is kept once, where it first appears."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        values = []
    if not values:
        raise UsageError(f"--{flag} expects N, LO..HI or N,N,...; got {text!r}")
    return list(dict.fromkeys(values))


def _enum_guard() -> int:
    raw = os.environ.get("DEGPOW_MAX_N", str(ENUM_FAST_CAP))
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"DEGPOW_MAX_N must be an integer, got {raw!r}") from None
    return max(1, min(cap, ENUM_HARD_CAP))


def _admitted(default: object, values: list[int]) -> list[int]:
    """The explicit values an axis keeps: where a default range, extended
    upward, reaches (see verify.SUITES); all of them for a listed axis."""
    if not isinstance(default, range):
        return values
    return [v for v in values if v >= default.start and (v - default.start) % default.step == 0]


def _apply_flags(args: argparse.Namespace, row: GridRow, given: dict, guard: int) -> GridRow:
    """The row with the parsed --n/--p/--k/--q and --pmax/--nmax applied."""
    axes = {name: _admitted(default, given[name]) if name in given else default
            for name, default in row.axes.items()}
    fixed = dict(row.fixed)
    for key, flag in (("p_values", "p"), ("k_values", "k")):
        if key in fixed and flag in given:
            fixed[key] = tuple(given[flag])
    if args.pmax is not None and "pair" in fixed and "p" not in given:
        axes["p"] = range(row.axes["p"].start, args.pmax + 1)
        if not axes["p"]:
            raise UsageError(f"--pmax must be >= {row.axes['p'].start}, got {args.pmax}")
    if args.nmax is not None and "n_max" in fixed:
        fixed["n_max"] = args.nmax
    if row.kind == "theorem":
        # default orders clamp to the enumeration guard; explicit ones may not pass it
        too_large = [n for n in axes["n"] if n > guard]
        if "n" in given and too_large:
            raise UsageError(f"n={too_large[0]} exceeds the enumeration guard; "
                             f"set DEGPOW_MAX_N={too_large[0]}")
        axes["n"] = [n for n in axes["n"] if n <= guard]
    return GridRow(row.kind, fixed, axes)


# the grid keys through which each verify flag reaches a GridRow
_FLAG_KEYS = {"n": ("n",), "p": ("p", "p_values"), "k": ("k_values",), "q": ("q",),
              "pair": ("pair",), "pmax": ("pair",), "nmax": ("n_max",)}


def _build_tasks(args: argparse.Namespace) -> list[tuple[str, dict]]:
    # a flag that no row of the suite takes is an error; all-desk takes none
    rows = () if args.suite == "all-desk" else SUITES[args.suite]
    keys = {key for row in rows for key in (*row.fixed, *row.axes)}
    for flag, flag_keys in _FLAG_KEYS.items():
        if getattr(args, flag) is not None and keys.isdisjoint(flag_keys):
            raise UsageError(f"verify {args.suite} takes no --{flag}")
    if args.suite == "all-desk":
        # the acceptance grid is fixed, its n=9 search included
        tasks = suite_tasks("all-desk")
    else:
        guard = _enum_guard()
        given = {flag: _parse_range(flag, getattr(args, flag))
                 for flag in ("n", "p", "k", "q") if getattr(args, flag)}
        tasks = [task for row in SUITES[args.suite]
                 if not args.pair or row.fixed.get("pair", args.pair) == args.pair
                 for task in grid_tasks(_apply_flags(args, row, given, guard))]
        if not tasks:
            raise UsageError("no verification tasks match the given grid")
    with _bad_input():
        for task in tasks:
            validate_task(task)
    return tasks


def cmd_verify(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    tasks = _build_tasks(args)
    # open the report files before the run, so that a bad path is bad input
    reports = []
    for path, render in ((args.json, ReportEnvelope.to_json), (args.csv, ReportEnvelope.to_csv)):
        if path:
            try:
                reports.append((open(path, "w"), render))
            except OSError as exc:
                raise UsageError(f"cannot write {path}: {exc.strerror}") from None
    started = datetime.now(timezone.utc).isoformat() if args.timestamps else None
    # never more workers than tasks: the pool forks all of them up front
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run_task, tasks))
    else:
        chunks = [run_task(t) for t in tasks]
    records = [rec for chunk in chunks for rec in chunk]
    finished = datetime.now(timezone.utc).isoformat() if args.timestamps else None
    envelope = ReportEnvelope(
        command=f"verify {args.suite}",
        parameters={
            "suite": args.suite,
            "n": args.n, "p": args.p, "k": args.k, "q": args.q,
            "pair": args.pair, "pmax": args.pmax, "nmax": args.nmax,
        },
        records=records,
        started_at=started,
        finished_at=finished,
    )
    for fh, render in reports:
        with fh:
            fh.write(render(envelope))
    failures = 0
    for rec in records:
        params = ";".join(f"{k}={v}" for k, v in sorted(rec.params.items()))
        line = f"{rec.check} [{params}] {rec.verdict}"
        if rec.value is not None:
            line += f" value={rec.value}"
        print(line)
        if rec.verdict == "fail":
            failures += 1
            print(f"  witness: {json.dumps(rec.witness, sort_keys=True)}")
    print(f"{len(records) - failures}/{len(records)} checks passed")
    return 0 if failures == 0 else 1


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        p.add_argument("--format", choices=("auto", "g6", "edgelist"), default="auto")

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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"degpow: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
