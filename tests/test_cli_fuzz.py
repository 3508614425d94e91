"""Fuzzing the command line in-process: argv drawn from build_parser()'s
subcommands, choices and flags, with ints past sys.maxsize, values at each
cap and one either side, garbage strings and the range grammar.  Every
argv exits 0, 1 or 2, and exit 2 prints exactly one stderr line and
nothing on stdout."""

from __future__ import annotations

import argparse
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import degpow.cli as cli_mod
from degpow.cli import build_parser, main
from degpow.enumeration import ENUM_FAST_CAP, ENUM_HARD_CAP
from degpow.families import FAMILIES
from degpow.graphs import MAX_VERTICES

from test_cli import HUGE, HUGE_RANGES

COMMANDS = next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices
CAPS = sorted({cli_mod.AXIS_CAP, cli_mod.P_CAP, cli_mod.LEMMA_PN_CAP, ENUM_FAST_CAP,
               ENUM_HARD_CAP, MAX_VERTICES, *(cap for _, cap in cli_mod.SCAN_CAPS.values())})
INTS = st.one_of(st.integers(-3, 12), st.sampled_from([c + d for c in CAPS for d in (-1, 0, 1)]),
                 st.integers(sys.maxsize, 10**30))
GARBAGE = st.text(max_size=6)
VALUES = st.one_of(
    INTS.map(str),
    st.tuples(INTS, INTS).map(lambda r: f"{r[0]}..{r[1]}"),
    st.lists(INTS, min_size=1, max_size=3).map(lambda v: ",".join(map(str, v))),
    st.sampled_from(["..", "3..", "..5", "2,,3", ",", "4..5..6"]),
    GARBAGE,
)
# placeholders for paths in a fresh directory: a file, one below a missing
# directory, and the directory itself
PATHS = st.sampled_from(["{tmp}/r.out", "{tmp}/missing/r.out", "{tmp}"])
GRAPHS = st.sampled_from(["C~", "Bg", "Dhc", "A_", "@"])


def _mostly(valid: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """valid three times in four, else a garbage string."""
    return st.sampled_from([valid, valid, valid, GARBAGE]).flatmap(lambda drawn: drawn)


def _value(action: argparse.Action) -> st.SearchStrategy[str]:
    """What one argument of the action is drawn from."""
    if action.dest == "jobs":
        # a worker count is never drawn large: each worker is a process
        return st.integers(1, 3).map(str)
    if action.dest in ("json", "csv"):
        return PATHS
    if action.dest == "file":
        return st.sampled_from(["-", "{tmp}/missing.g6"])
    if action.dest == "g6":
        return _mostly(GRAPHS)
    if action.dest == "family":
        return _mostly(st.sampled_from(sorted(FAMILIES)))
    if action.choices:
        return _mostly(st.sampled_from(list(action.choices)))
    if action.type is int:
        return _mostly(INTS.map(str))
    return VALUES


def _args(action: argparse.Action) -> st.SearchStrategy[list[str]]:
    """The argv words of one action: its flag, if it has one, and values."""
    if action.nargs == 0:
        return st.just(action.option_strings[:1])
    values = st.lists(_value(action), max_size=3) if action.nargs == "*" else \
        _value(action).map(lambda v: [v])
    return values.map(lambda v: action.option_strings[:1] + v)


@st.composite
def _argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(COMMANDS)))
    actions = [a for a in COMMANDS[command]._actions if not isinstance(a, argparse._HelpAction)]
    positional = [a for a in actions if not a.option_strings]
    optional = [a for a in actions if a.option_strings]
    words = [command]
    for action in positional:
        words += draw(_args(action))
    for action in draw(st.lists(st.sampled_from(optional), unique=True, max_size=3)):
        words += draw(_args(action))
    return words


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_argv(), GARBAGE | st.sampled_from(["C~\nBg\n", "4 0 1 1 2"]))
@example(["ep", "--g6", "C~", "--p", HUGE], "")
@example(["ep", "--g6", "C~", "--p", "1000000"], "")
@example(list(HUGE_RANGES[0]), "")
@example(list(HUGE_RANGES[1]), "")
@example(list(HUGE_RANGES[2]), "")
@example(list(HUGE_RANGES[3]), "")
@example(list(HUGE_RANGES[4]), "")
@example(list(HUGE_RANGES[5]), "")
def test_main_exits_zero_one_or_two(argv, stdin):
    # a grid runs only its first task: the front end is fuzzed here, and a
    # whole grid at the caps may run for minutes
    run_grid = cli_mod.run_grid
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli_mod, "run_grid", lambda tasks, *pool: run_grid(tasks[:1], *pool))
        patch.setattr(sys, "stdin", io.StringIO(stdin))
        patch.delenv("DEGPOW_MAX_N", raising=False)
        with redirect_stdout(out), redirect_stderr(err):
            code = main([word.replace("{tmp}", tmp) for word in argv])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("degpow: error: ")
