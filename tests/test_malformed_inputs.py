"""Malformed input never ends in a traceback or an internal error.

Structure files and operator files are valid documents with one to three
random edits (a value replaced by another JSON value, a key or entry
deleted, one added); argument lists are each subcommand's options with
values drawn from good and bad ones, some options left out and a stray
token now and then.  Every run goes through `cli.main` and must exit 0, 1
or 2 (argparse's own exit included), never 3, with no traceback, and exit 1
only when a FAIL line is printed.
"""
import copy
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, seed, settings, strategies as st

from ybforge import cli, registry
from ybforge.constructions import r_algebra
from ybforge.structures import dualize, structure_to_json
from ybforge.ybcore import linop2_to_json

FIXED = settings(max_examples=150, deadline=None, database=None)

_THETA_Z2 = [[[a], [b], "-1" if a and b else "1"]
             for a in (0, 1) for b in (0, 1)]
COLORLIE = {"kind": "colorlie", "dim": 2, "basis": ["u", "v"], "group": [2],
            "grading": [[0], [1]], "theta": _THETA_Z2,
            "table": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]}
STRUCTURES = [structure_to_json(registry.build(name))
              for name in ("dual2", "sym2jordan", "t21", "theorem22(2)",
                           "heis3", "gl11")]
STRUCTURES += [structure_to_json(dualize(registry.build("sym2jordan"))),
               COLORLIE]
OPERATOR = linop2_to_json(r_algebra(registry.build("dual2"), 2, 3, 2))

KEYS = ["kind", "dim", "basis", "table", "unit", "grading", "group",
        "theta", "n", "mat"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(-3, 3, allow_nan=False)
    | st.sampled_from(["", "0", "1", "-1/2", "1/0", "x", "00", "10", "algebra",
                       "coalgebra", "superlie", "colorlie", "linop2"]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(KEYS), inner,
                                     max_size=3)),
    max_leaves=6)


@st.composite
def edited(draw, doc):
    """doc with one to three random edits at random depths."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            children = [k for k in keys if isinstance(node[k], (dict, list))]
            if not children or draw(st.booleans()):
                break
            node = node[draw(st.sampled_from(children))]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        keys = (sorted(node) if isinstance(node, dict)
                else list(range(len(node))))
        if action == "add" or not keys:
            if isinstance(node, dict):
                node[draw(st.sampled_from(KEYS))] = draw(json_values)
            else:
                node.append(draw(json_values))
            continue
        key = draw(st.sampled_from(keys))
        if action == "delete":
            del node[key]
        else:
            node[key] = draw(json_values)
    return doc


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO("{}")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:      # argparse: usage error or --help
                code = exc.code
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    code, out, err = run_main(argv)
    text = out + err
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in text, (argv, err)
    if code == 1:
        assert "[FAIL]" in text or '"verdict": false' in text, (argv, text)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("malformed")
    (path / "op.json").write_text(json.dumps(OPERATOR))
    (path / "algebra.json").write_text(json.dumps(STRUCTURES[1]))
    return path


def structure_commands(path, out):
    abg = ["--alpha", "2", "--beta", "3", "--gamma", "2"]
    return [["algebra-check", path],
            ["algebra-check", path, "--jordan-mode", "full", "--json"],
            ["dualize", path, "-o", out],
            ["ybe", "build", "rA", "--algebra", path] + abg + ["-o", out],
            ["ybe", "jordan-restricted", "--algebra", path] + abg,
            ["ybe", "phi", "--lie", path, "--z", "0,0,1", "--alpha", "1"],
            ["ybe", "super-colored", "--lie", path, "--z", "0,0,1",
             "--alpha-table", "0=1,1=2", "--beta-table", "0=1,1=3"]]


@seed(1312)
@FIXED
@given(st.sampled_from(STRUCTURES).flatmap(edited), st.integers(0, 6))
def test_malformed_structure_file(workdir, doc, which):
    path = workdir / "structure.json"
    path.write_text(json.dumps(doc))
    commands = structure_commands(str(path), str(workdir / "out.json"))
    check_contract(commands[which])


@seed(7686)
@FIXED
@given(edited(OPERATOR), st.sampled_from(
    [[], ["--braid"], ["--qybe"], ["--invertible"], ["--equivalence"],
     ["--braid", "--qybe", "--invertible", "--equivalence", "--json"]]))
def test_malformed_operator_file(workdir, doc, flags):
    path = workdir / "operator.json"
    path.write_text(json.dumps(doc))
    check_contract(["ybe", "verify", str(path)] + flags)


# (good values, bad values) per option; a bad one is drawn one time in five
VALUES = (["1", "-1", "2", "3", "1/2", "-1/3"], ["0", "1/0", "x", ""])
SOURCES = (["dual2", "mat2", "sym2jordan", "t21", "gl11", "heis3",
            "split2(2)", "theorem22(-1)", "{algebra}"],
           ["split2(1/0)", "split2(x)", "t21(1)", "theorem22(1,2)",
            "octonions", "", "{op}", "{missing}"])
GRIDS = (["4", "7", "8"], ["-1", "0", "3", "33", "x"])
TABLES = (["0=1,1=2", "0=1,1=3", "0=0,1=0"], ["0=1", "x=1", "0=1/0", "0", ""])
OUTPUT = (["{out}"], ["{missing}"])
COMMANDS = {
    ("algebra-check",): {None: SOURCES,
                         "--jordan-mode": (["pattern3", "full", "symmetrized"],
                                           ["weak"]),
                         "--expect": (["jordan", "commutative,associative"],
                                      ["flat", ""])},
    ("examples", "list"): {},
    ("examples", "emit"): {None: (["dual2", "split2", "t21", "theorem22"],
                                  ["octonions", ""]),
                           "--m": VALUES, "--s": VALUES, "--t": VALUES,
                           "--beta": VALUES, "-o": OUTPUT},
    ("ybe", "build", "rA"): {"--algebra": SOURCES, "--alpha": VALUES,
                             "--beta": VALUES, "--gamma": VALUES,
                             "-o": OUTPUT},
    ("ybe", "verify"): {None: (["{op}"], ["{algebra}", "{missing}"]),
                        "--braid": None, "--qybe": None,
                        "--invertible": None, "--equivalence": None},
    ("ybe", "colored"): {"--algebra": SOURCES, "--p": VALUES,
                         "--q": VALUES, "--grid": GRIDS},
    ("ybe", "oneparam"): {"--algebra": SOURCES, "--q": VALUES,
                          "--grid": GRIDS},
    ("ybe", "wxz38"): {"--algebra": SOURCES, "--lambda": VALUES,
                       "--mu": VALUES},
    ("ybe", "phi"): {"--lie": SOURCES,
                     "--z": (["1,1,0,0", "0,0,1"], ["1,2", "x"]),
                     "--alpha": VALUES, "-o": OUTPUT},
    ("ybe", "super-colored"): {"--lie": SOURCES,
                               "--z": (["1,1,0,0", "0,0,1"], ["x"]),
                               "--alpha-table": TABLES,
                               "--beta-table": TABLES,
                               "--colors": (["0,1", "0"], ["5", "x", ""])},
    ("ybe", "jordan-restricted"): {"--algebra": SOURCES, "--alpha": VALUES,
                                   "--beta": VALUES, "--gamma": VALUES},
    ("ybe", "form8"): {"--algebra": SOURCES, "--alpha": VALUES,
                       "--beta": VALUES},
    ("dualize",): {None: SOURCES, "-o": OUTPUT},
}
STRAY = ["--json", "--grid", "-o", "--help", "--version", "extra", "-", "--"]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = list(command)
    for flag, values in COMMANDS[command].items():
        if draw(st.integers(0, 9)) == 0:      # leave the option out
            continue
        if values is None:
            argv.append(flag)
            continue
        good, bad = values
        value = draw(st.sampled_from(bad if draw(st.integers(0, 4)) == 0
                                     else good))
        argv += [value] if flag is None else [flag, value]
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(STRAY)))
    return argv


@seed(2013)
@settings(FIXED, max_examples=300)
@given(argvs())
def test_malformed_argv(workdir, argv):
    paths = {"algebra": str(workdir / "algebra.json"),
             "op": str(workdir / "op.json"),
             "out": str(workdir / "out.json"),
             "missing": str(workdir / "missing" / "out.json")}
    check_contract([arg.format(**paths) for arg in argv])
