"""One parser per process: `cli.main` builds its argparse tree on the first
call and reuses it for every later call in the same process.

A reused parser must keep nothing from one call to the next.  Each case
below runs first in a fresh `python -m ybforge.cli` process; then all of
them run in one process in a shuffled order, and each must give the same
exit status, stdout and stderr.  Cases that must follow one another (a
positional left at its default after one that set it, one grid size and
then another) stay together in one group.
"""
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import ybforge
import ybforge.cli
from ybforge import registry
from ybforge.cli import main
from ybforge.constructions import r_algebra
from ybforge.ybcore import linop2_to_json

SRC = str(pathlib.Path(ybforge.__file__).parent.parent)

DUAL2 = registry.build("dual2")
# a Yang-Baxter operator and one that fails the braid relation
YB_OP = json.dumps(linop2_to_json(r_algebra(DUAL2, 1, 2, 1)))
NON_YB_OP = json.dumps(linop2_to_json(r_algebra(DUAL2, 2, 1, 3)))

COLORED = ["ybe", "colored", "--algebra", "dual2", "--p", "2", "--q", "3"]


def case(*argv, stdin=""):
    return (list(argv), stdin)


GROUPS = [
    [case("algebra-check", "sym2jordan", "--jordan-mode", "symmetrized"),
     case("algebra-check", "dual2")],
    [case("algebra-check", "theorem22(2)", "--expect", "coassociative",
          "--json")],
    [case("algebra-check", "octonions")],
    [case("ybe", "build", "rA", "--alpha", "1")],
    [case(*COLORED, "--grid", "x")],
    [case("--version")],
    [case("--help")],
    [case("ybe", "--help")],
    [case("examples", "emit", "dual2"), case("examples", "list")],
    [case("ybe", "verify", "-", stdin=YB_OP),
     case("ybe", "verify", "--braid", "--json", stdin=NON_YB_OP)],
    [case(*COLORED, "--grid", "5"), case(*COLORED, "--grid", "4")],
    [case("ybe", "oneparam", "--algebra", "dual2", "--q", "1")],
    [case("ybe", "jordan-restricted", "--algebra", "sym2jordan",
          "--alpha", "1", "--beta", "1", "--gamma", "1")],
    [case("dualize", "theorem22(-1)")],
    [case("ybe", "phi", "--lie", "heis3", "--alpha", "1")],
]
CASES = [c for group in GROUPS for c in group]


def base_env():
    # help text wraps at the terminal width, which argparse reads from COLUMNS
    return dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")


@pytest.fixture(scope="module")
def fresh():
    """(exit status, stdout, stderr) of each case in its own process."""
    got = []
    for argv, stdin in CASES:
        proc = subprocess.run([sys.executable, "-m", "ybforge.cli"] + argv,
                              input=stdin, capture_output=True, text=True,
                              env=base_env(), timeout=120)
        got.append((proc.returncode, proc.stdout, proc.stderr))
    return dict(zip(map(repr, CASES), got))


def run_here(capsys, monkeypatch, argv, stdin):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reused_parser_matches_fresh_processes(fresh, capsys, monkeypatch,
                                               seed):
    groups = list(GROUPS)
    random.Random(seed).shuffle(groups)
    run_here(capsys, monkeypatch, *case("algebra-check", "dual2"))
    parser = ybforge.cli._PARSER
    assert parser is not None
    for group in groups:
        for c in group:
            assert run_here(capsys, monkeypatch, *c) == fresh[repr(c)], c[0]
    assert ybforge.cli._PARSER is parser
    assert ybforge.cli.build_parser() is not parser


def test_handlers_are_looked_up_at_call_time(capsys, monkeypatch):
    assert main(["algebra-check", "dual2"]) == 0
    capsys.readouterr()

    def broken(_args):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(ybforge.cli, "cmd_dualize", broken)
    assert main(["dualize", "dual2"]) == 3
    assert capsys.readouterr().err == \
        "internal error: RuntimeError: simulated fault\n"
