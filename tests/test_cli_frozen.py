"""Frozen command-line output.

`CORPUS` is a fixed list of argv over every subcommand, the registry
structures and a few small files that the test writes itself: PASS, FAIL
and bad-input cases, `--json`, `-o`, stdin, argparse usage errors and the
`--help` text of the top level, of `ybe` and of every subcommand.
`cli_frozen.json` holds, for each argv, the exit status, stdout, stderr
and the sha256 of every file the command wrote; each case must reproduce
it byte for byte.  Every case runs in-process through `cli.main`, in a
directory of its own inputs, with `COLUMNS=80`.

The data was generated once, before the command-line wiring was
simplified, and is regenerated only when output changes on purpose:

    PYTHONPATH=src python tests/test_cli_frozen.py

Inputs whose output was changed on purpose at that point are left out of
the corpus, and are tested in `tests/test_cli.py` instead:
- `examples emit` with a flag that the family does not take, or with a
  parameter given without the ones before it (`t21 --t 0`, `split2 --s 5`,
  `t21 --beta 2 --m 3`, `octonions --m 3`);
- a JSON file nested past the recursion limit, and an operator file whose
  `n` has more digits than `int` may parse;
- `ybe super-colored` with more than `GRID_MAX` colours, or with a key
  repeated in `--alpha-table` or `--beta-table`.

A second test checks the parser's shape: every leaf subcommand resolves to
a `cmd_` handler by its command path, and ends with `--json`.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import sys
import tempfile

import pytest

from ybforge import cli, registry
from ybforge.constructions import phi_super, r_algebra
from ybforge.structures import dualize, structure_to_json
from ybforge.ybcore import linop2_to_json

DATA = pathlib.Path(__file__).with_name("cli_frozen.json")

LEAVES = [("algebra-check",), ("examples",), ("ybe", "build"),
          ("ybe", "verify"), ("ybe", "colored"), ("ybe", "oneparam"),
          ("ybe", "wxz38"), ("ybe", "phi"), ("ybe", "super-colored"),
          ("ybe", "jordan-restricted"), ("ybe", "form8"), ("dualize",)]

ALGEBRAS = ["dual2", "split2", "split2(2)", "mat2", "t21", "t21(1,0)",
            "sym2jordan", "in/sym2jordan.json"]
COALGEBRAS = ["theorem22", "theorem22(-1)", "theorem22(2)",
              "in/co-sym2jordan.json"]
GRADED = ["heis3", "gl11", "in/gl11.json", "in/colorlie.json"]
BAD_SOURCES = ["octonions", "", "split2(1/0)", "split2(x)", "t21(1,2,3)",
               "theorem22(1,2)", "in/missing.json", "in/junk.json",
               "in/dim0.json", "in/nonascii.json", "in/op.json"]
OPERATORS = ["in/op.json", "in/op-fail.json", "in/phi.json"]
ABG = ["--alpha", "1", "--beta", "2", "--gamma", "1"]
VERIFY_FLAGS = [[], ["--braid"], ["--qybe"], ["--invertible"],
                ["--equivalence"],
                ["--braid", "--qybe", "--invertible", "--equivalence",
                 "--json"]]
PASS_TABLES = ["--alpha-table", "0=1,1=2,2=3", "--beta-table", "0=1,1=1,2=1"]
FAIL_TABLES = ["--alpha-table", "0=1,1=2,2=3", "--beta-table", "0=1,1=2,2=4"]

_THETA_Z2 = [[[a], [b], "-1" if a and b else "1"]
             for a in (0, 1) for b in (0, 1)]


def write_inputs(root):
    """The files the corpus reads, under root/in."""
    sym2 = registry.build("sym2jordan")
    dual2 = registry.build("dual2")
    docs = {
        "sym2jordan.json": structure_to_json(sym2),
        "co-sym2jordan.json": structure_to_json(dualize(sym2)),
        "gl11.json": structure_to_json(registry.build("gl11")),
        "colorlie.json": {"kind": "colorlie", "dim": 2, "basis": ["u", "v"],
                          "group": [2], "grading": [[0], [1]],
                          "theta": _THETA_Z2,
                          "table": [[["0", "0"], ["0", "0"]],
                                    [["0", "0"], ["0", "0"]]]},
        "dim0.json": {"kind": "algebra", "dim": 0, "basis": [], "table": []},
        "op.json": linop2_to_json(r_algebra(dual2, 1, 2, 1)),
        "op-fail.json": linop2_to_json(r_algebra(dual2, 2, 1, 3)),
        "phi.json": linop2_to_json(
            phi_super(registry.build("heis3"), [0, 0, 1], 2).op),
    }
    (root / "in").mkdir()
    for name, doc in docs.items():
        (root / "in" / name).write_text(json.dumps(doc))
    (root / "in" / "junk.json").write_text("{not json")
    (root / "in" / "nonascii.json").write_bytes(
        '{"kind": "algebra", "name": "é"}'.encode("utf-8"))


def build_corpus():
    cases = []

    def add(*argv, stdin=""):
        cases.append((list(argv), stdin))

    # argparse: help, version, usage errors
    add("--help")
    add("--version")
    add("ybe", "--help")
    for leaf in LEAVES:
        add(*leaf, "--help")
    add()
    add("ybe")
    add("frobnicate")
    add("ybe", "build", "rA", "--alpha", "1")
    add("algebra-check", "dual2", "--jordan-mode", "weak")
    add("ybe", "colored", "--algebra", "dual2", "--p", "2", "--q", "3",
        "--grid", "x")
    add("examples", "show")

    # algebra-check
    for src in ALGEBRAS + COALGEBRAS + GRADED + BAD_SOURCES:
        add("algebra-check", src)
    for src in ALGEBRAS + COALGEBRAS + GRADED:
        add("algebra-check", src, "--json")
    for src in ALGEBRAS + COALGEBRAS:
        for mode in ("full", "symmetrized"):
            add("algebra-check", src, "--jordan-mode", mode)
    for src, expect in [("mat2", "jordan"), ("mat2", "associative,unital"),
                        ("dual2", "jordan-w,commutative"), ("dual2", "flat"),
                        ("theorem22(2)", "coassociative"),
                        ("theorem22(-1)", "jordan-co, cocommutative"),
                        ("gl11", "jacobi,antisymmetric"),
                        ("in/colorlie.json", "bicharacter"),
                        ("in/colorlie.json", "jordan"), ("heis3", "")]:
        add("algebra-check", src, "--expect", expect)
        add("algebra-check", src, "--expect", expect, "--json")

    # examples
    add("examples", "list")
    add("examples", "list", "--json")
    for name in registry.names():
        add("examples", "emit", name)
    for flags in (["--m", "3"], ["--m", "1/2"], ["--m", "1/0"],
                  ["--m", "x"]):
        add("examples", "emit", "split2", *flags)
    for flags in (["--s", "1", "--t", "0"], ["--s", "1"],
                  ["--s", "-1", "--t", "-1", "-o", "out/t21.json"],
                  ["--s", "x", "--t", "1"]):
        add("examples", "emit", "t21", *flags)
    add("examples", "emit", "theorem22", "--beta", "2")
    add("examples", "emit", "theorem22", "--beta", "-1", "--json")
    add("examples", "emit", "dual2", "--json")
    add("examples", "emit", "gl11", "-o", "out/gl11.json")
    add("examples", "emit", "t21(1,0)")
    add("examples", "emit", "in/sym2jordan.json")
    add("examples", "emit")
    add("examples", "emit", "octonions")
    add("examples", "emit", "dual2", "-o", "out")
    add("examples", "emit", "dual2", "-o", "out/missing/x.json")

    # ybe build
    for alg in ALGEBRAS + ["heis3", "theorem22"]:
        add("ybe", "build", "rA", "--algebra", alg, *ABG, "-o", "out/op.json")
    add("ybe", "build", "rA", "--algebra", "dual2", *ABG)
    add("ybe", "build", "rA", "--algebra", "sym2jordan", *ABG, "--json")
    add("ybe", "build", "rA", "--algebra", "dual2",
        "--alpha", "2", "--beta", "1", "--gamma", "3", "-o", "out/op.json")
    add("ybe", "build", "rA", "--algebra", "dual2",
        "--alpha", "1/0", "--beta", "1", "--gamma", "1")
    add("ybe", "build", "rA", "--algebra", "dual2",
        "--alpha", "1e9", "--beta", "1", "--gamma", "1")
    add("ybe", "build", "rA", "--algebra", "dual2", *ABG,
        "-o", "out/missing/op.json")

    # ybe verify
    for op in OPERATORS:
        for flags in VERIFY_FLAGS:
            add("ybe", "verify", op, *flags)
    dual2 = registry.build("dual2")
    add("ybe", "verify", "-",
        stdin=json.dumps(linop2_to_json(r_algebra(dual2, 1, 2, 1))))
    add("ybe", "verify", "--braid", "--json",
        stdin=json.dumps(linop2_to_json(r_algebra(dual2, 2, 1, 3))))
    add("ybe", "verify", stdin="{not json")
    add("ybe", "verify", stdin="")
    for src in ["in/missing.json", "in/junk.json", "in/nonascii.json",
                "in/sym2jordan.json"]:
        add("ybe", "verify", src)

    # ybe colored / oneparam
    for alg in ALGEBRAS + ["heis3", "theorem22"]:
        add("ybe", "colored", "--algebra", alg, "--p", "2", "--q", "3")
        add("ybe", "oneparam", "--algebra", alg, "--q", "2")
    for grid in ("5", "3", "6", "33", "-1"):
        add("ybe", "colored", "--algebra", "dual2", "--p", "1", "--q", "2",
            "--grid", grid)
        add("ybe", "oneparam", "--algebra", "dual2", "--q", "1",
            "--grid", grid)
    add("ybe", "colored", "--algebra", "mat2", "--p", "1/2", "--q", "-3",
        "--json")
    add("ybe", "oneparam", "--algebra", "sym2jordan", "--q", "0", "--json")
    add("ybe", "colored", "--algebra", "dual2", "--p", "1/0", "--q", "1")
    add("ybe", "oneparam", "--algebra", "dual2", "--q", "x")

    # ybe wxz38, jordan-restricted, form8
    for alg in ALGEBRAS + ["heis3"]:
        add("ybe", "wxz38", "--algebra", alg, "--lambda", "2", "--mu", "3")
        add("ybe", "jordan-restricted", "--algebra", alg, *ABG)
        add("ybe", "form8", "--algebra", alg, "--alpha", "2", "--beta", "1")
    add("ybe", "wxz38", "--algebra", "mat2", "--lambda", "-1", "--mu", "5",
        "--json")
    add("ybe", "wxz38", "--algebra", "dual2", "--lambda", "1/0", "--mu", "1")
    add("ybe", "jordan-restricted", "--algebra", "sym2jordan",
        "--alpha", "1", "--beta", "1", "--gamma", "2", "--json")
    add("ybe", "form8", "--algebra", "split2(1)", "--alpha", "1",
        "--beta", "1", "--json")
    add("ybe", "form8", "--algebra", "dual2", "--alpha", "0", "--beta", "1")

    # ybe phi
    for lie in GRADED + ["dual2"]:
        add("ybe", "phi", "--lie", lie, "--alpha", "2")
    add("ybe", "phi", "--lie", "gl11", "--alpha", "1", "-o", "out/phi.json")
    add("ybe", "phi", "--lie", "heis3", "--alpha", "1", "--json",
        "-o", "out/phi.json")
    add("ybe", "phi", "--lie", "heis3", "--z", "0,0,2", "--alpha", "1")
    add("ybe", "phi", "--lie", "heis3", "--z", "1,0,0", "--alpha", "1")
    add("ybe", "phi", "--lie", "in/gl11.json", "--z", "1,1,0,0",
        "--alpha", "3")
    add("ybe", "phi", "--lie", "gl11", "--z", "1,2", "--alpha", "1")
    add("ybe", "phi", "--lie", "gl11", "--z", "x,1,0,0", "--alpha", "1")
    add("ybe", "phi", "--lie", "heis3", "--alpha", "1/0")

    # ybe super-colored
    for lie in GRADED + ["dual2"]:
        add("ybe", "super-colored", "--lie", lie, *PASS_TABLES)
        add("ybe", "super-colored", "--lie", lie, *FAIL_TABLES)
    add("ybe", "super-colored", "--lie", "gl11", *FAIL_TABLES, "--json")
    add("ybe", "super-colored", "--lie", "heis3", *PASS_TABLES,
        "--colors", "0,1")
    add("ybe", "super-colored", "--lie", "heis3", *PASS_TABLES,
        "--colors", "0,1,5")
    add("ybe", "super-colored", "--lie", "heis3", *PASS_TABLES,
        "--colors", "abc")
    add("ybe", "super-colored", "--lie", "heis3",
        "--alpha-table", "0=1,1=2,2=3", "--beta-table", "0=1,1=1",
        "--colors", "0,1,2")
    for table in ("0=1/0", "x=1", "0", "", "1E3000000=1", "1/2=3,-1=2"):
        add("ybe", "super-colored", "--lie", "heis3",
            "--alpha-table", table, "--beta-table", "0=1,1/2=1,-1=1")
    add("ybe", "super-colored", "--lie", "gl11", "--z", "1,1,0,0",
        *PASS_TABLES)
    add("ybe", "super-colored", "--lie", "in/gl11.json", "--z", "1,1,0,0",
        *FAIL_TABLES)
    add("ybe", "super-colored", "--lie", "gl11", *FAIL_TABLES,
        "--colors", "2,0,0")
    add("ybe", "super-colored", "--lie", "gl11", "--z", "0,0,1,0",
        *PASS_TABLES)

    # dualize
    for src in ALGEBRAS + COALGEBRAS + GRADED + ["octonions", "in/junk.json"]:
        add("dualize", src)
    add("dualize", "sym2jordan", "-o", "out/co.json")
    add("dualize", "in/co-sym2jordan.json", "-o", "out/back.json", "--json")
    add("dualize", "dual2", "-o", "out/missing/co.json")
    return cases


CORPUS = build_corpus()


def case_id(case):
    argv, stdin = case
    return " ".join(argv) + (" <stdin" if stdin else "")


@contextlib.contextmanager
def case_dir(root, stdin):
    """Run in root with an empty root/out, the given stdin and COLUMNS=80;
    restore all of it afterwards."""
    out = root / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    saved_columns = os.environ.get("COLUMNS")
    saved_cwd, saved_stdin = os.getcwd(), sys.stdin
    os.environ["COLUMNS"] = "80"
    os.chdir(root)
    sys.stdin = io.StringIO(stdin)
    try:
        yield out
    finally:
        sys.stdin = saved_stdin
        os.chdir(saved_cwd)
        if saved_columns is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = saved_columns


def run_case(root, case):
    argv, stdin = case
    stdout, stderr = io.StringIO(), io.StringIO()
    with case_dir(root, stdin) as out:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:      # argparse: usage error or --help
                code = exc.code
        files = {path.relative_to(root).as_posix():
                 hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(out.rglob("*")) if path.is_file()}
    return {"argv": argv, "stdin": stdin, "exit": code,
            "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "files": files}


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    path = tmp_path_factory.mktemp("frozen")
    write_inputs(path)
    return path


@pytest.fixture(scope="module")
def frozen():
    return json.loads(DATA.read_text())


def test_corpus_matches_the_frozen_data(frozen):
    assert [(c["argv"], c["stdin"]) for c in frozen] == \
        [(argv, stdin) for argv, stdin in CORPUS]


@pytest.mark.parametrize("index", range(len(CORPUS)),
                         ids=[case_id(c) for c in CORPUS])
def test_output_is_frozen(root, frozen, index):
    assert run_case(root, CORPUS[index]) == frozen[index]


def leaf_parsers(parser, path=()):
    actions = [a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
    if not actions:
        yield path, parser
        return
    for name, sub in actions[0].choices.items():
        yield from leaf_parsers(sub, path + (name,))


def test_every_leaf_has_a_handler_and_ends_with_json():
    leaves = dict(leaf_parsers(cli.build_parser()))
    assert sorted(leaves) == sorted(LEAVES)
    for path, parser in leaves.items():
        handler = "cmd_" + "_".join(path).replace("-", "_")
        assert callable(getattr(cli, handler, None)), path
        assert parser._actions[-1].option_strings == ["--json"], path


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        write_inputs(tmp)
        data = [run_case(tmp, case) for case in CORPUS]
    DATA.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print("%d cases, %d bytes -> %s" % (len(data), DATA.stat().st_size, DATA))
