"""No check of the package multiplies or inverts dense matrices, or reads
an operator's dense form.

Composing with the twist relabels the keys of an operator's entries
(`ybcore.with_twist`), phi's closed-form inverse is checked by slot action
(`ybcore.composes_to_identity`), and invertibility is a rank test on the
entries (`ybcore.invertible`).  `exactla.mat_mul`, `exactla.kron`,
`exactla.mat_inverse` and the kernels of `_kernels` stay only while
perfbench hooks them.  Here the kernels and the dense view `LinOp2.mat`
raise while the commands run, every exit status stays as it was, and no
module but `exactla` names them.
"""
import ast
import json
import pathlib

import pytest

import ybforge
from ybforge import _kernels, registry
from ybforge.cli import main
from ybforge.constructions import r_algebra
from ybforge.ybcore import LinOp2, linop2_to_json

SRC = pathlib.Path(ybforge.__file__).parent
DENSE_NAMES = {"mat_mul", "kron", "compose", "twist", "_kernels",
               "matmul_pure", "kron_pure", "mat_inverse"}

LIE = ["--alpha-table", "0=1,1=2,2=3", "--beta-table", "0=1,1=1,2=1"]
# (argv, exit status); {name} is an operator file written by the test
CASES = [
    (["ybe", "phi", "--lie", "heis3", "--alpha", "2"], 0),
    (["ybe", "phi", "--lie", "gl11", "--alpha", "1/3", "-o", "{out}"], 0),
    (["ybe", "form8", "--algebra", "dual2", "--alpha", "2", "--beta", "1"], 0),
    (["ybe", "form8", "--algebra", "split2(2)", "--alpha", "2",
      "--beta", "1"], 1),
    (["ybe", "verify", "{yb}", "--equivalence", "--invertible"], 0),
    (["ybe", "verify", "{non_yb}", "--equivalence"], 0),
    (["ybe", "verify", "{non_yb}", "--invertible"], 1),
    (["ybe", "verify", "{mat2}", "--equivalence", "--invertible"], 0),
    (["ybe", "super-colored", "--lie", "heis3"] + LIE, 0),
    (["ybe", "super-colored", "--lie", "gl11"] + LIE, 1),
    (["ybe", "build", "rA", "--algebra", "mat2", "--alpha", "2", "--beta",
      "3", "--gamma", "2", "-o", "{out}"], 0),
    (["ybe", "verify", "{yb}", "--braid", "--qybe", "--equivalence",
      "--invertible"], 1),
    (["ybe", "verify", "{mat2}", "--braid", "--invertible"], 0),
    (["ybe", "oneparam", "--algebra", "dual2", "--q", "2"], 0),
    (["ybe", "oneparam", "--algebra", "sym2jordan", "--q", "2"], 1),
    (["ybe", "colored", "--algebra", "dual2", "--p", "1", "--q", "2"], 0),
    (["ybe", "colored", "--algebra", "sym2jordan", "--p", "1", "--q", "2"], 1),
    (["ybe", "wxz38", "--algebra", "mat2", "--lambda", "2", "--mu", "3"], 0),
    (["ybe", "wxz38", "--algebra", "sym2jordan", "--lambda", "2", "--mu",
      "3"], 1),
    (["ybe", "jordan-restricted", "--algebra", "sym2jordan", "--alpha", "1",
      "--beta", "2", "--gamma", "1"], 0),
    (["ybe", "jordan-restricted", "--algebra", "sym2jordan", "--alpha", "1",
      "--beta", "2", "--gamma", "3"], 1),
]


def _refuse(*_args):
    raise AssertionError("dense kernel or dense operator reached")


@pytest.fixture
def files(tmp_path):
    dual2, mat2 = registry.build("dual2"), registry.build("mat2")
    ops = {"yb": r_algebra(dual2, 1, 2, 1), "non_yb": r_algebra(dual2, 2, 1, 3),
           "mat2": r_algebra(mat2, 2, 3, 2)}
    paths = {"out": str(tmp_path / "out.json")}
    for name, op in ops.items():
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(linop2_to_json(op)))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("argv, status", CASES,
                         ids=[" ".join(argv[:2] + argv[3:4]) + "-%d" % i
                              for i, (argv, _s) in enumerate(CASES)])
def test_commands_reach_no_dense_kernel(monkeypatch, capsys, files, argv,
                                        status):
    monkeypatch.setattr(_kernels, "matmul_pure", _refuse)
    monkeypatch.setattr(_kernels, "kron_pure", _refuse)
    monkeypatch.setattr(LinOp2, "mat", property(_refuse))
    assert main([arg.format(**files) for arg in argv]) == status
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name not in ("exactla.py",
                                                          "_kernels.py")))
def test_no_module_names_a_dense_product(path):
    tree = ast.parse((SRC / path).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    assert sorted(names & DENSE_NAMES) == []
