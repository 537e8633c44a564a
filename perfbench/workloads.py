"""The three workloads: generated inputs, seeded check lists and their frozen
expected outcomes.

Every check is a `ybforge` command line with a frozen expectation (see
outcomes.py).  The seed picks parameter values from fixed pools and, in
cli-session, the invocation order; it never changes dimensions, check
counts or the PASS/FAIL/bad-input mix, so runs on different seeds do the
same kind and amount of work.

Expectations come from an independent source where one exists:
`thm32_predict`'s three cases for the braid verdict of rA triples, the
witnesses frozen in the project's tests for dual2, and the README's exit
status contract (0 all verdicts hold, 1 some verdict fails, 2 bad input).
Every other pooled value was run through ybforge 0.1.0 and its outcome
frozen here: the qybe and braid witnesses over mat2 and the generated 3x3
matrix algebra, and the PASS/FAIL verdicts of the oneparam, colored, wxz38,
phi, form8, theorem22 and jordan-restricted pools.
"""
import json
import os
import random

from outcomes import PRESENT

# --- generated inputs ----------------------------------------------------

_HALF = "1/2"
# sym2jordan as the registry defines it: symmetric 2x2 matrices under
# a.b = (ab+ba)/2, basis (E11, E22, E12+E21).
_SYM2 = [[["1", "0", "0"], ["0", "0", "0"], ["0", "0", _HALF]],
         [["0", "0", "0"], ["0", "1", "0"], ["0", "0", _HALF]],
         [["0", "0", _HALF], ["0", "0", _HALF], ["1", "1", "0"]]]


def _mat3():
    """The 3x3 matrix algebra, basis E_ab row-major."""
    names = [(a, b) for a in range(3) for b in range(3)]
    table = [[["0"] * 9 for _ in range(9)] for _ in range(9)]
    for i, (a, b) in enumerate(names):
        for j, (p, q) in enumerate(names):
            if b == p:
                table[i][j][names.index((a, q))] = "1"
    return {"kind": "algebra", "dim": 9,
            "basis": ["E%d%d" % (a + 1, b + 1) for a, b in names],
            "table": table,
            "unit": ["1" if a == b else "0" for a, b in names]}


def _diagonal(k):
    """Q^k with componentwise product."""
    table = [[["1" if i == j == l else "0" for l in range(k)]
              for j in range(k)] for i in range(k)]
    return {"kind": "algebra", "dim": k,
            "basis": ["e%d" % i for i in range(k)],
            "table": table, "unit": ["1"] * k}


def _dual_sym2():
    """The coalgebra dual to sym2jordan: d[k][i][j] = c[i][j][k]."""
    table = [[[_SYM2[i][j][k] for j in range(3)] for i in range(3)]
             for k in range(3)]
    return {"kind": "coalgebra", "dim": 3, "basis": ["E11", "E22", "S"],
            "table": table}


INPUTS = {
    "mat3.json": _mat3(),
    "q5.json": _diagonal(5),
    "q6.json": _diagonal(6),
    "cosym2.json": _dual_sym2(),
    # malformed structure files (roadmap item D): README promises exit 2
    "table5.json": {"kind": "algebra", "dim": 2, "basis": ["a", "b"],
                    "table": 5},
    "toplist.json": [{"kind": "algebra"}],
    "dim0.json": {"kind": "algebra", "dim": 0, "basis": [], "table": []},
}


def write_inputs(directory):
    for name, doc in INPUTS.items():
        with open(os.path.join(directory, name), "w", encoding="ascii") as fh:
            json.dump(doc, fh)


# --- pools and frozen outcomes ------------------------------------------

# thm32_predict cases: alpha = gamma != 0 != beta, or beta = gamma != 0 != alpha
PASS_TRIPLES = [(1, 2, 1), (2, 3, 2), (3, 1, 3), (2, 1, 2),
                (2, 1, 1), (1, 2, 2), (3, 2, 2), (1, 3, 3)]
# No thm32_predict case holds.  None has alpha + beta = gamma, which would
# cancel entries of the operator and make its checks cheaper than the rest.
FAIL_TRIPLES = [(3, 1, 2), (3, 2, 1), (2, 3, 1), (1, 3, 2), (2, 2, 1),
                (3, 3, 2), (1, 4, 2), (4, 1, 3)]


def _qybe_witness(algebra, triple):
    """QYBE witness of a braid-PASS triple (the QYBE of rA itself fails)."""
    if algebra == "dual2":
        # tests/test_ybcore.py freezes (1,2,1); the beta = gamma case moves it
        return ((0, 1, 0), (0, 0, 1)) if triple[0] == triple[2] else ((1, 0, 0), (0, 0, 1))
    return {"mat2": ((0, 1, 2), (0, 0, 0)),
            "mat3.json": ((0, 1, 3), (0, 0, 0))}[algebra]


def _braid_witness(algebra):
    """Braid witness of a FAIL triple; the same for every triple in the pool."""
    return {"dual2": ((0, 0, 1), (0, 0, 1)),
            "mat2": ((0, 1, 2), (0, 0, 0)),
            "mat3.json": ((0, 1, 3), (0, 0, 0))}[algebra]


# oneparam: PASS over the associative mat2 and dual2, FAIL over sym2jordan
ONEPARAM_Q = ["2", "3", "4", "5", "-2", "-3"]
# The value pools below avoid 0, 1 and equal pairs, which zero or merge
# operator entries and so change the cost of a check between seeds.
# colored (p, q): PASS over mat2 and dual2, FAIL over sym2jordan
COLORED_PQ = [("2", "3"), ("3", "5"), ("-2", "5"), ("5", "-3"), ("2", "7"), ("3", "-4")]
# wxz38 (lambda, mu): all four conditions hold over mat2 and dual2
WXZ_LM = [("2", "3"), ("-2", "5"), ("3", "-2"), ("5", "-3"), ("-3", "4"), ("4", "7")]
# phi alpha: a Yang-Baxter operator over heis3 and gl11
PHI_ALPHA = ["2", "3", "-2", "-3", "5", "4"]
# split2(m) is commutative and associative, hence Jordan
SPLIT2_M = ["2", "3", "5", "-1", "1/2", "-2"]
# theorem22(beta): jordan-co[pattern3] holds at the default beta = -1 only
THM22_FAIL_BETA = ["2", "3", "1/2", "-2", "5"]
# form8 (alpha, beta): dual2 matches the template for every pair, and
# split2(m) for none of the pairs in FORM8_SPLIT2_AB
FORM8_AB = [("2", "1"), ("3", "1"), ("1", "2"), ("-1", "2"), ("3", "2"), ("5", "3")]
FORM8_SPLIT2_M = ["2", "3", "5", "-2"]
FORM8_SPLIT2_AB = [ab for ab in FORM8_AB if ab != ("-1", "2")]
# gl11 super-colored tables from the project's tests: FAIL with a witness
SUPER_TABLES = ["--alpha-table", "0=1,1=2,2=3", "--beta-table", "0=1,1=2,2=4"]


def _ok(*names):
    return {name: [True, None, None] for name in names}


WXZ_CHECKS = _ok("[W,W,W]=0", "[Z,Z,Z]=0", "[W,X,X]=0", "[X,X,Z]=0")
PHI_CHECKS = _ok("braid", "invertible", "yang-baxter", "inverse-formula")
GRID_PASS = [True, True, None]
GRID_FAIL = [False, False, PRESENT]


def _check(cid, argv, exit_status, checks=None, stdout=None):
    expect = {"exit": exit_status}
    if checks is not None:
        expect["checks"] = checks
    if stdout is not None:
        expect["stdout"] = stdout
    return {"id": cid, "argv": list(argv), "expect": expect}


def _build(cid, algebra, triple, out):
    a, b, g = (str(x) for x in triple)
    return _check(cid, ["ybe", "build", "rA", "--algebra", algebra, "--alpha", a,
                        "--beta", b, "--gamma", g, "-o", out, "--json"], 0, {})


def _oneparam(cid, algebra, q, ok):
    return _check(cid, ["ybe", "oneparam", "--algebra", algebra, "--q", q, "--json"],
                  0 if ok else 1, {"oneparam-ybe": GRID_PASS if ok else GRID_FAIL})


def _colored(cid, algebra, pq, ok):
    return _check(cid, ["ybe", "colored", "--algebra", algebra, "--p", pq[0],
                        "--q", pq[1], "--json"],
                  0 if ok else 1, {"colored-qybe": GRID_PASS if ok else GRID_FAIL})


def _wxz(cid, algebra, lm):
    return _check(cid, ["ybe", "wxz38", "--algebra", algebra, "--lambda", lm[0],
                        "--mu", lm[1], "--json"], 0, WXZ_CHECKS)


def _algebra_check(cid, source, ok=True, check="jordan-w[pattern3]", extra=()):
    return _check(cid, ["algebra-check", source] + list(extra) + ["--json"],
                  0 if ok else 1, {check: [ok, None, None]})


def _verify(cid, algebra, triple, operator, flags):
    """`ybe verify` of the rA operator that `_build` wrote for `triple`."""
    ok = triple in PASS_TRIPLES
    checks = {}
    if "--braid" in flags:
        checks["braid"] = [ok, None, None if ok else _braid_witness(algebra)]
    if "--qybe" in flags:
        if not ok:
            raise ValueError("QYBE witnesses are frozen for PASS triples only")
        checks["qybe"] = [False, None, _qybe_witness(algebra, triple)]
    if "--invertible" in flags:
        if not ok:
            raise ValueError("invertibility is frozen for PASS triples only")
        checks["invertible"] = [True, None, None]   # thm32_inverse exists
    if "--equivalence" in flags:
        checks["braid-qybe-equivalence"] = [True, None, None]   # an identity
    exit_status = 0 if all(c[0] for c in checks.values()) else 1
    return _check(cid, ["ybe", "verify", operator] + list(flags) + ["--json"],
                  exit_status, checks)


def _jordan_restricted(cid, algebra, triple, ok=True):
    # Restricted braid PASS: over the associative dual2 every PASS triple
    # satisfies the full relation; over sym2jordan (1,1,1) is the README's
    # example, and every PASS triple was confirmed.  FAIL: sym2jordan with
    # (2,1,3), confirmed.
    a, b, g = (str(x) for x in triple)
    return _check(cid, ["ybe", "jordan-restricted", "--algebra", algebra,
                        "--alpha", a, "--beta", b, "--gamma", g, "--json"],
                  0 if ok else 1, {"restricted-braid": [ok, None, None]})


# --- dense-identities ----------------------------------------------------

def dense_identities(rng):
    """Dense 64x64 and 729x729 exact products: `_kernels` and the `ybcore`
    lifts carry the load.  The non-commutative algebras skip the Jordan grid,
    so `structures` stays light; cheap structure and dual2 checks at the end
    keep every traced layer measured."""
    p, f, d = (rng.choice(PASS_TRIPLES), rng.choice(FAIL_TRIPLES),
               rng.choice(PASS_TRIPLES))
    return [
        _build("mat3-build-pass", "mat3.json", p, "op-pass.json"),
        _verify("mat3-verify-braid-pass", "mat3.json", p, "op-pass.json", ["--braid"]),
        _verify("mat3-verify-qybe-fail", "mat3.json", p, "op-pass.json", ["--qybe"]),
        _build("mat3-build-fail", "mat3.json", f, "op-fail.json"),
        _verify("mat3-verify-braid-fail", "mat3.json", f, "op-fail.json", ["--braid"]),
        _oneparam("oneparam-mat2", "mat2", rng.choice(ONEPARAM_Q), True),
        _oneparam("oneparam-sym2jordan", "sym2jordan", rng.choice(ONEPARAM_Q), False),
        _colored("colored-mat2", "mat2", rng.choice(COLORED_PQ), True),
        _colored("colored-sym2jordan", "sym2jordan", rng.choice(COLORED_PQ), False),
        _wxz("wxz38-mat2", "mat2", rng.choice(WXZ_LM)),
        _check("phi-gl11", ["ybe", "phi", "--lie", "gl11", "--alpha",
                            rng.choice(PHI_ALPHA), "--json"], 0, PHI_CHECKS),
        _check("super-colored-gl11", ["ybe", "super-colored", "--lie", "gl11"]
               + SUPER_TABLES + ["--json"], 1, {"colored-qybe": GRID_FAIL}),
        _algebra_check("algebra-check-sym2jordan", "sym2jordan"),
        _algebra_check("algebra-check-theorem22", "theorem22",
                       check="jordan-co[pattern3]"),
        _jordan_restricted("jordan-restricted-dual2", "dual2", rng.choice(PASS_TRIPLES)),
        _build("build-dual2", "dual2", d, "op-dual2.json"),
        _verify("verify-dual2", "dual2", d, "op-dual2.json",
                ["--invertible", "--equivalence"]),
    ]


# --- structure-axioms ----------------------------------------------------

def structure_axioms(rng):
    """Axiom checks with few products: Fraction vector work in `structures`
    (the 4^n Jordan grid, the W subspace and its projections, the restricted
    family) and row reduction in `exactla`; `_kernels` is nearly idle.  Cheap
    dual2 operator checks at the end keep every traced layer measured."""
    co = ["--jordan-mode"]
    d = rng.choice(PASS_TRIPLES)
    return [
        _algebra_check("algebra-check-dual2", "dual2"),
        _algebra_check("algebra-check-split2", "split2(%s)" % rng.choice(SPLIT2_M)),
        _algebra_check("algebra-check-t21", "t21"),
        _algebra_check("algebra-check-t21-1-0", "t21(1,0)", ok=False),
        _algebra_check("algebra-check-sym2jordan", "sym2jordan"),
        _algebra_check("algebra-check-q5", "q5.json"),
        _algebra_check("algebra-check-q6", "q6.json"),
        _check("algebra-check-mat3", ["algebra-check", "mat3.json", "--expect",
                                      "associative,unital", "--json"],
               0, _ok("expect:associative", "expect:unital")),
        _check("algebra-check-heis3", ["algebra-check", "heis3", "--json"],
               0, _ok("antisymmetric", "jacobi")),
        _check("algebra-check-gl11", ["algebra-check", "gl11", "--json"],
               0, _ok("antisymmetric", "jacobi")),
        _algebra_check("algebra-check-theorem22", "theorem22",
                       check="jordan-co[pattern3]"),
        _algebra_check("jordan-co-pattern3", "cosym2.json",
                       check="jordan-co[pattern3]", extra=co + ["pattern3"]),
        _algebra_check("jordan-co-symmetrized", "cosym2.json",
                       check="jordan-co[symmetrized]", extra=co + ["symmetrized"]),
        _algebra_check("jordan-co-full", "cosym2.json", ok=False,
                       check="jordan-co[full]", extra=co + ["full"]),
        # Not seeded: the triple moves this check's time and the pass's peak
        # RSS by several percent.  The FAIL triple keeps fail_s from resting
        # on the single jordan-co-full check.
        _jordan_restricted("jordan-restricted-sym2jordan", "sym2jordan", (1, 1, 1)),
        _jordan_restricted("jordan-restricted-sym2jordan-fail", "sym2jordan",
                           (2, 1, 3), ok=False),
        _build("build-q5", "q5.json", rng.choice(PASS_TRIPLES + FAIL_TRIPLES),
               "op-q5.json"),
        _build("build-dual2", "dual2", d, "op-dual2.json"),
        _verify("verify-dual2", "dual2", d, "op-dual2.json",
                ["--braid", "--qybe", "--invertible", "--equivalence"]),
        _oneparam("oneparam-dual2", "dual2", rng.choice(ONEPARAM_Q), True),
        _colored("colored-dual2", "dual2", rng.choice(COLORED_PQ), True),
        _wxz("wxz38-dual2", "dual2", rng.choice(WXZ_LM)),
    ]


# --- cli-session ---------------------------------------------------------

# (name, kind, dim) of `examples emit` payloads
EMIT = [("dual2", "algebra", 2), ("mat2", "algebra", 4),
        ("sym2jordan", "algebra", 3), ("heis3", "superlie", 3),
        ("gl11", "superlie", 4), ("theorem22", "coalgebra", 2),
        ("t21", "algebra", 2), ("split2", "algebra", 2)]

# Malformed inputs from roadmap item D.  The README promises exit 2; ybforge
# 0.1.0 ends each in a traceback with exit 1, so they count as failed.
MALFORMED = {
    "colors-abc": ["ybe", "super-colored", "--lie", "gl11"] + SUPER_TABLES
                  + ["--colors", "abc"],
    "z-length": ["ybe", "phi", "--lie", "gl11", "--z", "1,2", "--alpha", "1"],
    "table-5": ["algebra-check", "table5.json"],
    "top-level-list": ["algebra-check", "toplist.json"],
    "dim-0": ["algebra-check", "dim0.json"],
    "split2-zero-denominator": ["algebra-check", "split2(1/0)"],
}

# Bad input that ybforge 0.1.0 already rejects with exit 2.
REJECTED = {
    "unknown-name": ["algebra-check", "nosuch"],
    "undersized-grid": ["ybe", "colored", "--algebra", "dual2", "--p", "2",
                        "--q", "3", "--grid", "2"],
    "bad-rational": ["ybe", "build", "rA", "--algebra", "dual2", "--alpha", "x",
                     "--beta", "1", "--gamma", "1"],
    "wrong-kind": ["ybe", "oneparam", "--algebra", "heis3", "--q", "2"],
    "missing-file": ["ybe", "verify", "missing-operator.json"],
    "bad-choice": ["algebra-check", "dual2", "--jordan-mode", "nosuch"],
}


def cli_session(rng):
    """At least 100 short `python -m ybforge.cli` invocations, each a fresh
    process: interpreter start, imports and argparse weigh as much as the
    checks.  A `ybe build` and the `ybe verify` of its operator stay
    adjacent; every other invocation is placed by the seed."""
    units = []

    def add(template, argv, exit_status, checks=None, stdout=None):
        units.append([(template, argv, exit_status, checks, stdout)])

    for _ in range(8):
        add("version", ["--version"], 0, stdout="version")
    for _ in range(4):
        add("examples-list", ["examples", "list", "--json"], 0, stdout="names")
    for _ in range(8):
        name, kind, dim = rng.choice(EMIT)
        add("examples-emit", ["examples", "emit", name], 0,
            stdout=["structure", kind, dim])
    jordan = {"jordan-w[pattern3]": [True, None, None]}
    for _ in range(3):
        for template, source, checks, status in [
                ("check-dual2", "dual2", jordan, 0),
                ("check-split2", "split2(%s)" % rng.choice(SPLIT2_M), jordan, 0),
                ("check-t21", "t21", jordan, 0),
                ("check-t21-1-0", "t21(1,0)",
                 {"jordan-w[pattern3]": [False, None, None]}, 1),
                ("check-sym2jordan", "sym2jordan", jordan, 0),
                ("check-heis3", "heis3", _ok("antisymmetric", "jacobi"), 0),
                ("check-gl11", "gl11", _ok("antisymmetric", "jacobi"), 0),
                ("check-theorem22", "theorem22", _ok("jordan-co[pattern3]"), 0),
                ("check-theorem22-beta", "theorem22(%s)" % rng.choice(THM22_FAIL_BETA),
                 {"jordan-co[pattern3]": [False, None, None]}, 1)]:
            add(template, ["algebra-check", source, "--json"], status, checks)
        add("check-mat2-jordan", ["algebra-check", "mat2", "--expect", "jordan",
                                  "--json"], 1, {"expect:jordan": [False, None, None]})
        add("check-mat2-assoc", ["algebra-check", "mat2", "--expect",
                                 "associative,unital", "--json"],
            0, _ok("expect:associative", "expect:unital"))
    pairs = 0
    for algebra in ("dual2", "mat2"):
        for _ in range(2):
            for kind, triple, flags in [
                    ("pass", rng.choice(PASS_TRIPLES),
                     ["--braid", "--invertible", "--equivalence"]),
                    ("fail", rng.choice(FAIL_TRIPLES), ["--braid"])]:
                pairs += 1
                operator = "op-%d.json" % pairs
                build = _build("", algebra, triple, operator)
                verify = _verify("", algebra, triple, operator, flags)
                units.append([("build-" + algebra, build["argv"],
                               build["expect"]["exit"], {}, None),
                              ("verify-%s-%s" % (kind, algebra), verify["argv"],
                               verify["expect"]["exit"], verify["expect"]["checks"],
                               None)])
    for lie in ("heis3", "gl11") * 3:
        add("phi-" + lie, ["ybe", "phi", "--lie", lie, "--alpha",
                           rng.choice(PHI_ALPHA), "--json"], 0, PHI_CHECKS)
    for _ in range(3):
        alpha, beta = rng.choice(FORM8_AB)
        add("form8-dual2", ["ybe", "form8", "--algebra", "dual2", "--alpha", alpha,
                            "--beta", beta, "--json"],
            0, {"matches-8x8-template": [True, None, None]})
        alpha, beta = rng.choice(FORM8_SPLIT2_AB)
        add("form8-split2", ["ybe", "form8", "--algebra",
                             "split2(%s)" % rng.choice(FORM8_SPLIT2_M),
                             "--alpha", alpha, "--beta", beta, "--json"],
            1, {"matches-8x8-template": [False, None, PRESENT]})
    for _ in range(4):
        check = _oneparam("", "dual2", rng.choice(ONEPARAM_Q), True)
        add("oneparam-dual2", check["argv"], 0, check["expect"]["checks"])
        check = _colored("", "dual2", rng.choice(COLORED_PQ), True)
        add("colored-dual2", check["argv"], 0, check["expect"]["checks"])
    for _ in range(2):
        add("wxz38-dual2", _wxz("", "dual2", rng.choice(WXZ_LM))["argv"], 0, WXZ_CHECKS)
        check = _jordan_restricted("", "dual2", rng.choice(PASS_TRIPLES))
        add("jordan-restricted-dual2", check["argv"], 0, check["expect"]["checks"])
    for name, argv in MALFORMED.items():
        add("malformed-" + name, argv + ["--json"], 2)
    for name, argv in REJECTED.items():
        add("rejected-" + name, argv + ["--json"], 2)

    rng.shuffle(units)
    checks, seen = [], {}
    for unit in units:
        for template, argv, exit_status, expected, stdout in unit:
            seen[template] = seen.get(template, 0) + 1
            checks.append(_check("%s-%d" % (template, seen[template]), argv,
                                 exit_status, expected, stdout))
    return checks


PLANS = {
    "dense-identities": dense_identities,
    "structure-axioms": structure_axioms,
    "cli-session": cli_session,
}


def plan(workload, seed):
    """The check list of one pass of `workload` for `seed`."""
    return PLANS[workload](random.Random("%s/%d" % (workload, seed)))
