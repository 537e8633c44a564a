"""No command reads a structure's dense `Fraction` table.

The specs of `structures` keep their constants as `num`/`den`; the tables
`AlgebraSpec.c`, `CoalgebraSpec.d` and `b`/`c` of the two bracket specs
are views built on first read, and nothing in the package reads them:
files are written from the store.  Here every view raises while the
commands run: `algebra-check` on every registry structure and on
perfbench's generated 3x3 matrix algebra, Q^5 and dual sym2jordan
coalgebra (in all three Jordan modes), the `ybe` commands that build
operators from an algebra or a bracket, and the two writers `examples emit`
and `dualize`.  Each must give the exit status and stdout of an unpatched
run.
"""
import json
import os
import sys

import pytest

from ybforge import registry
from ybforge.cli import main
from ybforge.structures import (AlgebraSpec, CoalgebraSpec, ColorLieSpec,
                                SuperLieSpec)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    from workloads import INPUTS
finally:
    sys.path.remove(PERFBENCH)

FILES = ("mat3", "q5", "cosym2")
MODES = ("pattern3", "symmetrized", "full")
SUPER = ["--alpha-table", "0=1,1=2,2=3", "--beta-table", "0=1,1=2,2=4"]
CASES = ([["algebra-check", name] for name in registry.names()]
         + [["algebra-check", "{%s}" % f] for f in FILES[:2]]
         + [["algebra-check", "{cosym2}", "--jordan-mode", mode]
            for mode in MODES]
         + [["ybe", "jordan-restricted", "--algebra", name, "--alpha", "1",
             "--beta", "2", "--gamma", gamma]
            for name in ("sym2jordan", "t21") for gamma in ("1", "3")]
         + [["ybe", "build", "rA", "--algebra", "sym2jordan", "--alpha", "2",
             "--beta", "3", "--gamma", "2", "-o", "{out}"],
            ["ybe", "phi", "--lie", "gl11", "--alpha", "3"],
            ["ybe", "super-colored", "--lie", "gl11"] + SUPER,
            ["ybe", "oneparam", "--algebra", "sym2jordan", "--q", "2"],
            ["ybe", "colored", "--algebra", "sym2jordan", "--p", "2",
             "--q", "3"],
            ["ybe", "wxz38", "--algebra", "sym2jordan", "--lambda", "2",
             "--mu", "3"],
            ["examples", "emit", "sym2jordan"],
            ["dualize", "{cosym2}"]])


def _refuse(*_args):
    raise AssertionError("a dense structure table was read")


@pytest.fixture
def files(tmp_path):
    paths = {"out": str(tmp_path / "out.json")}
    for name in FILES:
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(INPUTS[name + ".json"]))
        paths[name] = str(path)
    return paths


def run(capsys, argv):
    """(exit status, stdout) of argv; an internal error is one stderr line."""
    status = main(argv)
    out = capsys.readouterr()
    assert "internal error" not in out.err
    return status, out.out


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(argv) for argv in CASES])
def test_checks_read_no_view(monkeypatch, capsys, files, argv):
    argv = [arg.format(**files) for arg in argv]
    want = run(capsys, argv)
    for cls, names in ((AlgebraSpec, "c"), (CoalgebraSpec, "d"),
                       (SuperLieSpec, "bc"), (ColorLieSpec, "bc")):
        for name in names:
            monkeypatch.setattr(cls, name, property(_refuse))
    assert run(capsys, argv) == want
    assert want[0] in (0, 1)
