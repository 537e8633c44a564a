"""End-to-end CLI tests: exit codes, report text, JSON payloads, file flow.

Everything runs in-process through main(argv); exit status semantics are
0 = all verdicts true, 1 = some verdict false, 2 = bad input, 3 = internal
error.
"""
import io
import json
import os
import subprocess
import sys

import pytest

import ybforge
import ybforge.cli
from ybforge import registry
from ybforge.cli import main
from ybforge.structures import structure_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------- algebra-check ----------

def test_check_dual2(capsys):
    code, out, _ = run(capsys, "algebra-check", "dual2")
    assert code == 0
    assert "[PASS] jordan-w[pattern3]" in out
    assert "commutative=true" in out
    assert "jordan=true" in out


def test_check_noncommutative_skips_w_relation(capsys):
    code, out, _ = run(capsys, "algebra-check", "mat2")
    assert code == 0
    assert "jordan-w skipped" in out
    assert "jordan=false" in out


def test_check_expect_failure_flips_exit(capsys):
    code, out, _ = run(capsys, "algebra-check", "mat2", "--expect", "jordan")
    assert code == 1
    assert "[FAIL] expect:jordan" in out
    code, out, _ = run(capsys, "algebra-check", "mat2",
                       "--expect", "associative,unital")
    assert code == 0


def test_check_expect_unknown_property(capsys):
    code, _, err = run(capsys, "algebra-check", "dual2", "--expect", "flat")
    assert code == 2
    assert "error:" in err


def test_check_unknown_source(capsys):
    code, _, err = run(capsys, "algebra-check", "octonions")
    assert code == 2
    assert "neither a registry name" in err


def test_check_coalgebra_modes(capsys):
    code, out, _ = run(capsys, "algebra-check", "theorem22(-1)",
                       "--jordan-mode", "full")
    assert code == 0
    assert "[PASS] jordan-co[full]" in out
    assert "cocommutative=true" in out
    assert "coassociative=true" in out


def test_check_coalgebra_expect_coassoc_fails_off_minus_one(capsys):
    code, out, _ = run(capsys, "algebra-check", "theorem22(2)",
                       "--expect", "coassociative")
    assert code == 1
    assert "[FAIL] expect:coassociative" in out


@pytest.mark.parametrize("name", ["heis3", "gl11"])
def test_check_superlie(capsys, name):
    code, out, _ = run(capsys, "algebra-check", name)
    assert code == 0
    assert "[PASS] antisymmetric" in out
    assert "[PASS] jacobi" in out


def test_check_structure_file(capsys, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(structure_to_json(registry.build("dual2"))))
    code, out, _ = run(capsys, "algebra-check", str(path))
    assert code == 0
    assert "[PASS] jordan-w[pattern3]" in out


def test_check_bad_file(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "algebra-check", str(path))
    assert code == 2
    assert "invalid JSON" in err


# ---------- malformed input: exit 2 with one line on stderr ----------

# the group Z2 x Z3, with theta = 1 on all of it
Z2Z3 = [[a, b] for a in range(2) for b in range(3)]
THETA_Z2Z3 = [[g, h, "1"] for g in Z2Z3 for h in Z2Z3]

MALFORMED_FILES = {
    "table-not-a-list": {"kind": "algebra", "dim": 2, "basis": ["a", "b"],
                         "table": 5},
    "top-level-list": [{"kind": "algebra"}],
    "dim-0": {"kind": "algebra", "dim": 0, "basis": [], "table": []},
    "colorlie-modulus-0": {"kind": "colorlie", "dim": 1, "basis": ["a"],
                           "group": [0], "grading": [[0]], "theta": [],
                           "table": [[["0"]]]},
    # a group far too large to list, and a theta that cannot cover it
    "colorlie-group-1e9": {"kind": "colorlie", "dim": 1, "basis": ["a"],
                           "group": [10 ** 9], "grading": [[0]], "theta": [],
                           "table": [[["0"]]]},
    # exponent forms are refused: "1e3000000" is a 10-million-bit integer
    "table-exponent": {"kind": "algebra", "dim": 1, "basis": ["a"],
                       "table": [[["1e3000000"]]]},
    # strings and non-integers where lists and integers belong: none may be
    # read character by character or truncated
    "basis-string": {"kind": "algebra", "dim": 2, "basis": "1x",
                     "table": [[["0", "0"]] * 2] * 2},
    "unit-string": {"kind": "algebra", "dim": 2, "basis": ["1", "x"],
                    "table": [[["0", "0"]] * 2] * 2, "unit": "10"},
    "dim-float": {"kind": "algebra", "dim": 2.9, "basis": ["1", "x"],
                  "table": [[["0", "0"]] * 2] * 2},
    "superlie-grading-string": {"kind": "superlie", "dim": 2,
                                "basis": ["a", "b"], "grading": "00",
                                "table": [[["0", "0"]] * 2] * 2},
    "colorlie-group-string": {"kind": "colorlie", "dim": 1, "basis": ["a"],
                              "group": "2", "grading": [[0]],
                              "theta": [[[0], [0], "1"], [[0], [1], "1"],
                                        [[1], [0], "1"], [[1], [1], "1"]],
                              "table": [[["0"]]]},
    "colorlie-grading-string": {"kind": "colorlie", "dim": 2,
                                "basis": ["a", "b"], "group": [2],
                                "grading": ["0", "1"],
                                "theta": [[[0], [0], "1"], [[0], [1], "1"],
                                          [[1], [0], "1"], [[1], [1], "1"]],
                                "table": [[["0", "0"]] * 2] * 2},
    # grading entries with fewer or more components than the group has
    # moduli: neither may be caught late or silently truncated
    "colorlie-grading-short": {"kind": "colorlie", "dim": 2,
                               "basis": ["a", "b"], "group": [2, 3],
                               "grading": [[1], [0, 0]], "theta": THETA_Z2Z3,
                               "table": [[["0", "0"]] * 2] * 2},
    "colorlie-grading-long": {"kind": "colorlie", "dim": 2,
                              "basis": ["a", "b"], "group": [2, 3],
                              "grading": [[1, 0, 5], [0, 0]],
                              "theta": THETA_Z2Z3,
                              "table": [[["0", "0"]] * 2] * 2},
}

MALFORMED_ARGV = {
    "split2-zero-denominator": ["algebra-check", "split2(1/0)"],
    "z-length": ["ybe", "phi", "--lie", "gl11", "--z", "1,2", "--alpha", "1"],
    "colors-not-rational": ["ybe", "super-colored", "--lie", "gl11",
                            "--alpha-table", "0=1,1=2,2=3",
                            "--beta-table", "0=1,1=2,2=4", "--colors", "abc"],
    "grid-above-limit": ["ybe", "oneparam", "--algebra", "dual2", "--q", "2",
                         "--grid", "100000000"],
    "alpha-exponent": ["ybe", "build", "rA", "--algebra", "dual2",
                       "--alpha", "1e3000000", "--beta", "1", "--gamma", "1"],
    "inline-exponent": ["algebra-check", "split2(1e3000000)"],
    "table-key-exponent": ["ybe", "super-colored", "--lie", "gl11",
                           "--alpha-table", "1E3000000=1",
                           "--beta-table", "0=1"],
    "inline-empty-first": ["algebra-check", "t21(,1,0)"],
    "inline-all-empty": ["algebra-check", "split2(,)"],
    "inline-empty-last": ["algebra-check", "t21(1,)"],
}


def assert_rejected(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_malformed_structure_file_exits_2(capsys, tmp_path, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED_FILES[name]))
    assert_rejected(*run(capsys, "algebra-check", str(path)))


# theta is read like group and grading: a list whose keys are reduced
# modulo the group and cover G x G once each
Z2_THETA = [[[0], [0], "1"], [[0], [1], "1"], [[1], [0], "1"], [[1], [1], "1"]]
MALFORMED_THETA = {
    "repeated": (Z2_THETA + [[[1], [1], "-1"]], "theta lists a pair"),
    "reduced-repeat": (Z2_THETA + [[[3], [1], "7"]], "theta lists a pair"),
    "outside": (Z2_THETA + [[[0, 0], [1], "1"]], "each theta key needs 1"),
    "object": ({"abc": 1}, "theta must be a list"),
    "short-entry": ([[[0], [0]]], "each theta entry"),
    "entry-not-a-list": (["1"], "each theta entry"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_THETA))
def test_malformed_theta_exits_2(capsys, tmp_path, name):
    theta, message = MALFORMED_THETA[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "colorlie", "dim": 1, "basis": ["a"],
                                "group": [2], "grading": [[0]],
                                "theta": theta, "table": [[["0"]]]}))
    code, out, err = run(capsys, "algebra-check", str(path))
    assert_rejected(code, out, err)
    assert message in err


NON_STRING_RATIONALS = {
    "table": {"kind": "algebra", "dim": 1, "basis": ["a"], "table": [[[1]]]},
    "unit": {"kind": "algebra", "dim": 1, "basis": ["a"],
             "table": [[["1"]]], "unit": [1]},
    "theta": {"kind": "colorlie", "dim": 1, "basis": ["a"], "group": [2],
              "grading": [[0]], "theta": [[[0], [0], 1], [[0], [1], "1"],
                                          [[1], [0], "1"], [[1], [1], "1"]],
              "table": [[["0"]]]},
}


@pytest.mark.parametrize("name", sorted(NON_STRING_RATIONALS))
def test_non_string_rational_in_structure_file_exits_2(capsys, tmp_path, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(NON_STRING_RATIONALS[name]))
    assert_rejected(*run(capsys, "algebra-check", str(path)))


MALFORMED_OPERATORS = {
    "mat-not-a-list": {"kind": "linop2", "n": 2, "mat": 5},
    "short-row": {"kind": "linop2", "n": 1, "mat": [["1", "0"]]},
    "row-not-a-list": {"kind": "linop2", "n": 1, "mat": ["1"]},
    "number-entry": {"kind": "linop2", "n": 1, "mat": [[1]]},
    "n-not-an-integer": {"kind": "linop2", "n": [1], "mat": [["1"]]},
    "top-level-list": [{"kind": "linop2"}],
}


@pytest.mark.parametrize("name", sorted(MALFORMED_OPERATORS))
def test_malformed_operator_file_exits_2(capsys, tmp_path, name):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(MALFORMED_OPERATORS[name]))
    assert_rejected(*run(capsys, "ybe", "verify", str(path)))


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(_args):
        raise RuntimeError("simulated fault\nsecond line")

    monkeypatch.setattr(ybforge.cli, "cmd_dualize", broken)
    code, out, err = run(capsys, "dualize", "dual2")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: simulated fault second line\n"


@pytest.mark.parametrize("name", sorted(MALFORMED_ARGV))
def test_malformed_argument_exits_2(capsys, name):
    assert_rejected(*run(capsys, *MALFORMED_ARGV[name]))


def test_grid_just_above_limit_exits_2(capsys):
    code, out, err = run(capsys, "ybe", "colored", "--algebra", "dual2",
                         "--p", "2", "--q", "3",
                         "--grid", str(ybforge.cli.GRID_MAX + 1))
    assert_rejected(code, out, err)
    assert "above the limit" in err


# {missing}: a path in a directory that does not exist; {dir}: a directory
UNWRITABLE_OUTPUT = {
    "build-missing-dir": ["ybe", "build", "rA", "--algebra", "dual2",
                          "--alpha", "1", "--beta", "2", "--gamma", "1",
                          "-o", "{missing}"],
    "emit-to-directory": ["examples", "emit", "dual2", "-o", "{dir}"],
    "dualize-missing-dir": ["dualize", "dual2", "-o", "{missing}"],
}


@pytest.mark.parametrize("name", sorted(UNWRITABLE_OUTPUT))
def test_unwritable_output_exits_2(capsys, tmp_path, name):
    paths = {"missing": str(tmp_path / "missing" / "out.json"),
             "dir": str(tmp_path)}
    argv = [arg.format(**paths) for arg in UNWRITABLE_OUTPUT[name]]
    code, out, err = run(capsys, *argv)
    assert_rejected(code, out, err)
    assert "cannot write" in err


# inputs that parse, with a result holding an integer past the 4,300 digits
# that str() may print: one error line, exit 2, and no file written
LONG, SHORT = "7" * 3000, "1/" + "3" * 3000
OVERSIZED_RESULT = {
    "build": ["ybe", "build", "rA", "--algebra", "dual2", "--alpha", LONG,
              "--beta", SHORT, "--gamma", "1", "-o", "{out}"],
    "form8": ["ybe", "form8", "--algebra", "dual2", "--alpha", LONG,
              "--beta", SHORT],
    "phi": ["ybe", "phi", "--lie", "heis3", "--alpha", "1/" + LONG,
            "--z", "0,0," + SHORT, "-o", "{out}"],
}


@pytest.mark.parametrize("name", sorted(OVERSIZED_RESULT))
def test_oversized_result_exits_2(capsys, tmp_path, name):
    path = tmp_path / "out.json"
    argv = [arg.format(out=path) for arg in OVERSIZED_RESULT[name]]
    code, out, err = run(capsys, *argv)
    assert_rejected(code, out, err)
    assert "more than %d digits" % sys.get_int_max_str_digits() in err
    assert not path.exists()


def test_verify_non_ascii_operator_file_exits_2(capsys, tmp_path):
    path = tmp_path / "op.json"
    path.write_bytes('{"kind": "linop2", "n": 1, "mat": [["1"]], '
                     '"name": "\u00e9"}'.encode("utf-8"))
    code, out, err = run(capsys, "ybe", "verify", str(path))
    assert_rejected(code, out, err)
    assert "not ASCII" in err


def test_malformed_input_in_a_fresh_process_has_no_traceback(tmp_path):
    path = tmp_path / "dim0.json"
    path.write_text(json.dumps(MALFORMED_FILES["dim-0"]))
    src = os.path.dirname(os.path.dirname(ybforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "ybforge.cli", "algebra-check",
                           str(path)], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


# ---------- examples ----------

def test_examples_list_is_quiet(capsys):
    code, out, err = run(capsys, "examples", "list")
    assert code == 0
    assert out.splitlines() == registry.names()
    assert err == ""


def test_examples_emit_to_file(capsys, tmp_path):
    path = tmp_path / "t21.json"
    code, _, _ = run(capsys, "examples", "emit", "t21",
                     "--s", "-1", "--t", "-1", "-o", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc == structure_to_json(registry.build("t21", -1, -1))


def test_examples_emit_stdout_keeps_payload_clean(capsys):
    code, out, err = run(capsys, "examples", "emit", "split2", "--m", "1/2")
    assert code == 0
    doc = json.loads(out)          # stdout must be pure JSON
    assert doc["kind"] == "algebra"
    assert doc["table"][1][1] == ["1/2", "0"]
    assert "emit" in err           # the report went to stderr


def test_examples_emit_needs_name(capsys):
    code, _, err = run(capsys, "examples", "emit")
    assert code == 2
    assert "requires a name" in err


# ---------- ybe build / verify ----------

def test_build_verify_loop(capsys, tmp_path):
    path = tmp_path / "op.json"
    code, out, _ = run(capsys, "ybe", "build", "rA", "--algebra", "dual2",
                       "--alpha", "1", "--beta", "2", "--gamma", "1",
                       "-o", str(path))
    assert code == 0
    assert "predicted yang-baxter: true" in out
    code, out, _ = run(capsys, "ybe", "verify", str(path))
    assert code == 0
    assert "[PASS] braid" in out
    assert "[PASS] invertible" in out
    assert "[PASS] braid-qybe-equivalence" in out


def test_build_stdout_payload_pipes_into_verify(capsys, monkeypatch):
    code, out, err = run(capsys, "ybe", "build", "rA", "--algebra", "dual2",
                         "--alpha", "1", "--beta", "2", "--gamma", "1")
    assert code == 0
    json.loads(out)                # payload only
    assert "predicted" in err
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out2, _ = run(capsys, "ybe", "verify", "-")
    assert code == 0
    assert "[PASS] braid" in out2


def test_verify_braid_failure_prints_witness(capsys, tmp_path):
    path = tmp_path / "bad.json"
    run(capsys, "ybe", "build", "rA", "--algebra", "dual2",
        "--alpha", "2", "--beta", "1", "--gamma", "3", "-o", str(path))
    code, out, _ = run(capsys, "ybe", "verify", str(path), "--braid")
    assert code == 1
    assert "[FAIL] braid" in out
    assert "witness: [[0, 0, 1], [0, 0, 1]]" in out


def test_verify_qybe_of_braid_solution_fails(capsys, tmp_path):
    # the braid-true operator does not satisfy the QYBE as given; only its
    # twist composites do (the equivalence check stays green)
    path = tmp_path / "op.json"
    run(capsys, "ybe", "build", "rA", "--algebra", "dual2",
        "--alpha", "1", "--beta", "2", "--gamma", "1", "-o", str(path))
    code, out, _ = run(capsys, "ybe", "verify", str(path),
                       "--qybe", "--equivalence")
    assert code == 1
    assert "[FAIL] qybe" in out
    assert "witness: [[0, 1, 0], [0, 0, 1]]" in out
    assert "[PASS] braid-qybe-equivalence" in out


def test_build_requires_unital_algebra(capsys):
    code, _, err = run(capsys, "ybe", "build", "rA", "--algebra", "t21(-1,-1)",
                       "--alpha", "1", "--beta", "1", "--gamma", "1")
    assert code == 2
    assert "unital" in err


def test_build_rejects_bad_rational(capsys):
    code, _, err = run(capsys, "ybe", "build", "rA", "--algebra", "dual2",
                       "--alpha", "1/0", "--beta", "1", "--gamma", "1")
    assert code == 2
    assert "bad alpha" in err


# ---------- ybe colored / oneparam ----------

def test_colored_certified(capsys):
    code, out, _ = run(capsys, "ybe", "colored", "--algebra", "dual2",
                       "--p", "2", "--q", "3")
    assert code == 0
    assert "[PASS] colored-qybe (certified)" in out
    assert "u: 4 points, degree bound 3" in out


def test_colored_grid_too_small(capsys):
    code, _, err = run(capsys, "ybe", "colored", "--algebra", "dual2",
                       "--p", "2", "--q", "3", "--grid", "3")
    assert code == 2
    assert "below the certification bound" in err


def test_oneparam_certified(capsys):
    code, out, _ = run(capsys, "ybe", "oneparam", "--algebra", "dual2",
                       "--q", "2")
    assert code == 0
    assert "[PASS] oneparam-ybe (certified)" in out
    assert "t1: 7 points, degree bound 6" in out


# ---------- ybe wxz38 ----------

def test_wxz38_all_four_conditions(capsys):
    code, out, _ = run(capsys, "ybe", "wxz38", "--algebra", "mat2",
                       "--lambda", "-1", "--mu", "5")
    assert code == 0
    for name in ("[W,W,W]=0", "[Z,Z,Z]=0", "[W,X,X]=0", "[X,X,Z]=0"):
        assert "[PASS] %s" % name in out


# ---------- ybe phi / super-colored ----------

def test_phi_default_central_element(capsys):
    code, out, _ = run(capsys, "ybe", "phi", "--lie", "heis3", "--alpha", "2")
    assert code == 0
    for name in ("braid", "invertible", "yang-baxter", "inverse-formula"):
        assert "[PASS] %s" % name in out


def test_phi_rejects_non_central_z(capsys):
    code, _, err = run(capsys, "ybe", "phi", "--lie", "heis3",
                       "--z", "1,0,0", "--alpha", "1")
    assert code == 2
    assert "central" in err
    code, _, err = run(capsys, "ybe", "phi", "--lie", "gl11",
                       "--z", "0,0,1,0", "--alpha", "1")
    assert code == 2


def test_phi_writes_operator(capsys, tmp_path):
    path = tmp_path / "phi.json"
    code, _, _ = run(capsys, "ybe", "phi", "--lie", "gl11", "--alpha", "1",
                     "-o", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["kind"] == "linop2" and doc["n"] == 4


def test_super_colored_certified(capsys):
    code, out, _ = run(capsys, "ybe", "super-colored", "--lie", "heis3",
                       "--alpha-table", "0=1,1=2,2=3",
                       "--beta-table", "0=1,1=1,2=1")
    assert code == 0
    assert "[PASS] colored-qybe (certified)" in out
    assert "first color only" in out


def test_super_colored_non_proportional_witness(capsys):
    code, out, _ = run(capsys, "ybe", "super-colored", "--lie", "gl11",
                       "--alpha-table", "0=1,1=2,2=3",
                       "--beta-table", "0=1,1=2,2=4")
    assert code == 1
    assert "[FAIL] colored-qybe" in out
    assert "witness" in out


def test_super_colored_table_must_cover_colors(capsys):
    code, _, err = run(capsys, "ybe", "super-colored", "--lie", "heis3",
                       "--alpha-table", "0=1,1=2,2=3",
                       "--beta-table", "0=1,1=1",
                       "--colors", "0,1,2")
    assert code == 2
    assert "total on the color set" in err


# ---------- ybe jordan-restricted / form8 ----------

def test_jordan_restricted_pass_with_full_failure_noted(capsys):
    code, out, _ = run(capsys, "ybe", "jordan-restricted",
                       "--algebra", "sym2jordan",
                       "--alpha", "1", "--beta", "1", "--gamma", "1")
    assert code == 0
    assert "[PASS] restricted-braid" in out
    assert "full braid relation: false" in out


def test_jordan_restricted_failure(capsys):
    code, out, _ = run(capsys, "ybe", "jordan-restricted",
                       "--algebra", "sym2jordan",
                       "--alpha", "1", "--beta", "1", "--gamma", "2")
    assert code == 1
    assert "[FAIL] restricted-braid" in out


def test_jordan_restricted_rejects_non_jordan(capsys):
    code, _, err = run(capsys, "ybe", "jordan-restricted", "--algebra", "mat2",
                       "--alpha", "1", "--beta", "1", "--gamma", "1")
    assert code == 2
    assert "Jordan" in err


def test_form8_match_and_mismatch(capsys):
    code, out, _ = run(capsys, "ybe", "form8", "--algebra", "dual2",
                       "--alpha", "2", "--beta", "1")
    assert code == 0
    assert "q=2 eta=0" in out
    code, out, _ = run(capsys, "ybe", "form8", "--algebra", "split2(1)",
                       "--alpha", "1", "--beta", "1")
    assert code == 1
    assert "'entry': [3, 0]" in out
    code, _, err = run(capsys, "ybe", "form8", "--algebra", "dual2",
                       "--alpha", "0", "--beta", "1")
    assert code == 2


# ---------- dualize ----------

def test_dualize_roundtrip(capsys, tmp_path):
    co = tmp_path / "co.json"
    back = tmp_path / "back.json"
    code, _, _ = run(capsys, "dualize", "sym2jordan", "-o", str(co))
    assert code == 0
    assert json.loads(co.read_text())["kind"] == "coalgebra"
    code, _, _ = run(capsys, "dualize", str(co), "-o", str(back))
    assert code == 0
    doc = json.loads(back.read_text())
    orig = structure_to_json(registry.build("sym2jordan"))
    assert doc["table"] == orig["table"]
    assert doc["basis"] == orig["basis"]


def test_dualize_rejects_graded_structures(capsys):
    code, _, err = run(capsys, "dualize", "heis3")
    assert code == 2
    assert "algebra or coalgebra" in err


# ---------- JSON report mode ----------

def test_json_report_shape(capsys):
    code, out, _ = run(capsys, "algebra-check", "dual2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "algebra-check dual2"
    assert doc["exit"] == 0
    names = [c["name"] for c in doc["checks"]]
    assert "jordan-w[pattern3]" in names
    assert all(c["verdict"] for c in doc["checks"])
    assert any(n.startswith("kind=algebra") for n in doc["notes"])


def test_json_report_failure_carries_witness(capsys, tmp_path):
    path = tmp_path / "bad.json"
    run(capsys, "ybe", "build", "rA", "--algebra", "dual2",
        "--alpha", "2", "--beta", "1", "--gamma", "3", "-o", str(path))
    code, out, _ = run(capsys, "ybe", "verify", str(path), "--braid", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["exit"] == 1
    braid = [c for c in doc["checks"] if c["name"] == "braid"][0]
    assert braid["verdict"] is False
    assert braid["witness"] == [[0, 0, 1], [0, 0, 1]]



# ---------- JSON that the parser itself refuses: exit 2, not 3 ----------

# nested past the recursion limit, and an integer with more digits than
# int() may parse
MALFORMED_TEXT = {
    "nested-100000": "[" * 100000,
    "n-5000-digits": '{"kind": "linop2", "n": %s, "mat": []}' % ("1" * 5000),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_TEXT))
@pytest.mark.parametrize("command", [["algebra-check"], ["ybe", "verify"]])
def test_malformed_json_text_exits_2(capsys, tmp_path, command, name):
    path = tmp_path / "bad.json"
    path.write_text(MALFORMED_TEXT[name])
    assert_rejected(*run(capsys, *command, str(path)))


@pytest.mark.parametrize("name", sorted(MALFORMED_TEXT))
def test_malformed_json_on_stdin_exits_2(capsys, monkeypatch, name):
    monkeypatch.setattr("sys.stdin", io.StringIO(MALFORMED_TEXT[name]))
    assert_rejected(*run(capsys, "ybe", "verify", "-"))


# ---------- examples emit: flags are the family's own parameters ----------

EMIT_REFUSED = {
    "t21-t-without-s": (["t21", "--t", "0"], "--t is given without --s"),
    "split2-s": (["split2", "--s", "5"], "--s is not a parameter of split2"),
    "t21-beta-and-m": (["t21", "--beta", "2", "--m", "3"],
                       "--m is not a parameter of t21"),
    "theorem22-t": (["theorem22", "--t", "1"],
                    "--t is not a parameter of theorem22"),
    "dual2-m": (["dual2", "--m", "1"], "--m is not a parameter of dual2"),
    "unknown-name": (["octonions", "--m", "3"],
                     "--m is not a parameter of octonions"),
}


@pytest.mark.parametrize("name", sorted(EMIT_REFUSED))
def test_examples_emit_refuses_flags_the_family_lacks(capsys, name):
    argv, message = EMIT_REFUSED[name]
    code, out, err = run(capsys, "examples", "emit", *argv)
    assert_rejected(code, out, err)
    assert message in err


# registry name -> (flags, the inline source they stand for)
EMIT_ACCEPTED = {
    "dual2": ([], "dual2"),
    "split2": (["--m", "3"], "split2(3)"),
    "mat2": ([], "mat2"),
    "t21": (["--s", "1", "--t", "0"], "t21(1,0)"),
    "sym2jordan": ([], "sym2jordan"),
    "heis3": ([], "heis3"),
    "gl11": ([], "gl11"),
    "theorem22": (["--beta", "2"], "theorem22(2)"),
}


def test_emit_accepted_cases_cover_the_registry():
    assert sorted(EMIT_ACCEPTED) == registry.names()


@pytest.mark.parametrize("name", sorted(EMIT_ACCEPTED))
def test_examples_emit_maps_flags_to_parameters(capsys, name):
    flags, source = EMIT_ACCEPTED[name]
    code, out, err = run(capsys, "examples", "emit", name, *flags)
    assert code == 0
    assert json.loads(out) == structure_to_json(registry.build(source))
    assert "[PASS] emit:%s" % source in err


def test_examples_emit_leading_parameter_alone(capsys):
    code, out, _ = run(capsys, "examples", "emit", "t21", "--s", "1")
    assert code == 0
    assert json.loads(out) == structure_to_json(registry.build("t21", 1))


# ---------- super-colored: bounded colour set, one value per key ----------

def colour_table(count, value=lambda c: c + 1):
    return ",".join("%d=%d" % (c, value(c)) for c in range(count))


def test_super_colored_refuses_colours_above_grid_max(capsys):
    count = ybforge.cli.GRID_MAX + 1
    table = colour_table(count)
    code, out, err = run(capsys, "ybe", "super-colored", "--lie", "gl11",
                         "--alpha-table", table, "--beta-table", table)
    assert_rejected(code, out, err)
    assert err == "error: grid size %d is above the limit %d\n" % (
        count, ybforge.cli.GRID_MAX)
    colors = ",".join("0" for _ in range(count))
    code, out, err = run(capsys, "ybe", "super-colored", "--lie", "gl11",
                         "--alpha-table", "0=1", "--beta-table", "0=1",
                         "--colors", colors)
    assert_rejected(code, out, err)
    assert "above the limit" in err


def test_super_colored_runs_at_grid_max_colours(capsys):
    # beta is not proportional to alpha, so the walk fails at its start
    count = ybforge.cli.GRID_MAX
    code, out, _ = run(capsys, "ybe", "super-colored", "--lie", "gl11",
                       "--alpha-table", colour_table(count),
                       "--beta-table", colour_table(count, lambda c: c * c + 1))
    assert code == 1
    assert "[FAIL] colored-qybe" in out
    assert "u: %d points" % count in out


@pytest.mark.parametrize("tables", [("0=1,1=2,0=3", "0=1,1=1"),
                                    ("0=1,1=2", "0=1,1=1,1/1=2")])
def test_super_colored_refuses_repeated_table_key(capsys, tables):
    code, out, err = run(capsys, "ybe", "super-colored", "--lie", "heis3",
                         "--alpha-table", tables[0], "--beta-table", tables[1])
    assert_rejected(code, out, err)
    assert "repeated key" in err


# ---------- JSON text and reused verdicts ----------

def test_json_text_matches_json_dumps(capsys):
    from ybforge.cli import _dumps
    from ybforge.constructions import r_algebra
    from ybforge.ybcore import linop2_to_json
    docs = [linop2_to_json(r_algebra(registry.build("mat2"), 2, 3, 2)),
            {"names": registry.names()}, {"names": []}, {}, [], [[]],
            [{}, [], [[], {}]], {"a": {"b": []}}, 0, None, "é",
            {"x": [1, -2.5, True, None, "a\"b"], "y": [[1, [2]], "c"]},
            {1: "int key", None: [], True: {}, 2.5: [0]}, ([1], (2, 3))]
    for name in registry.names():
        docs.append(structure_to_json(registry.build(name)))
    for doc in docs:
        assert _dumps(doc) == json.dumps(doc, indent=2)
    # a report payload, as --json writes it, including an empty notes list
    for argv in (["ybe", "oneparam", "--algebra", "sym2jordan", "--q", "2"],
                 ["ybe", "wxz38", "--algebra", "dual2", "--lambda", "1",
                  "--mu", "2"]):
        main(argv + ["--json"])
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_verify_reuses_the_braid_verdict(capsys, tmp_path, monkeypatch):
    from ybforge import ybcore
    path = tmp_path / "op.json"
    run(capsys, "ybe", "build", "rA", "--algebra", "dual2",
        "--alpha", "1", "--beta", "2", "--gamma", "1", "-o", str(path))
    calls = []
    check = ybcore.braid_check

    def counted(r):
        calls.append(r)
        return check(r)

    monkeypatch.setattr(ybcore, "braid_check", counted)
    for flags, expect in (([], 0), (["--braid", "--equivalence"], 0),
                          (["--equivalence"], 1)):
        del calls[:]
        code, out, _ = run(capsys, "ybe", "verify", str(path), *flags)
        assert code == 0
        assert "[PASS] braid-qybe-equivalence" in out
        assert len(calls) == expect
