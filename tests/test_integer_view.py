"""The integer checks agree with their dense `Fraction` references.

Every axiom, Jordan and colour-Lie check of `structures`, the operator
template `constructions._formula_op`, the restricted squares family and the
operator file format run on integer numerators over one common denominator.
`tests/_dense.py` keeps the rational-arithmetic versions they replaced; here
both run on seeded random rational structures of dimension at most 4 (with
denominators, negatives, zero rows, symmetrised tables, with and without a
unit), and the Jordan checks also on fixed 6-dimensional algebras, and
must give the same verdicts, operators and files.  Structure files, which
parse each distinct entry text once, must read every entry as
`rat_from_str` reads it and refuse what it refuses, with its message.
"""
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _dense as dense
from ybforge import constructions, registry
from ybforge.cli import main
from ybforge.constructions import _adjoin_unit, _formula_op, jordan_r_restricted
from ybforge.exactla import common_den, mat_from_rows, rat_from_str, to_rat
from ybforge.structures import (AlgebraSpec, CoalgebraSpec, ColorLieSpec,
                                SuperLieSpec, _g_vanishes_on_w,
                                check_algebra_props, coalgebra_props, dualize,
                                jordan_co_check, mul_vec, structure_from_json,
                                theorem21_instance, theorem22_instance,
                                validate_colorlie)
from ybforge.ybcore import LinOp2, _braid_kills, linop2_from_json, linop2_to_json

SEEDED = settings(derandomize=True, max_examples=50, deadline=None,
                  database=None)
MODES = ("pattern3", "symmetrized", "full")
REGISTRY = ["dual2", "split2(-2/3)", "mat2", "sym2jordan", "t21", "t21(1,0)"]

rats = st.one_of(st.just(Fraction(0)),
                 st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))
nonzero = rats.filter(bool)


def vectors(n):
    return st.lists(rats, min_size=n, max_size=n)


@st.composite
def algebras(draw):
    """A registry algebra in a basis rescaled by nonzero rationals (its
    verdicts stay, its constants gain denominators and signs), or a random
    table of dim 1-4 with zero rows, optionally symmetrised, with no unit, a
    random vector as unit, or a formal unit adjoined."""
    if draw(st.booleans()):
        A = registry.build(draw(st.sampled_from(REGISTRY)))
        lam = draw(st.lists(nonzero, min_size=A.n, max_size=A.n))
        r = range(A.n)
        c = [[[lam[i] * lam[j] / lam[k] * A.c[i][j][k] for k in r] for j in r]
             for i in r]
        unit = None
        if A.unit is not None and draw(st.booleans()):
            unit = [A.unit[k] / lam[k] for k in r]
        return AlgebraSpec(A.basis, c, unit)
    m = draw(st.integers(1, 4))
    c = [[draw(vectors(m)) for _ in range(m)] for _ in range(m)]
    for i, j in itertools.product(range(m), repeat=2):
        if draw(st.integers(0, 2)) == 0:
            c[i][j] = [Fraction(0)] * m
    if draw(st.booleans()):
        for i, j in itertools.combinations(range(m), 2):
            c[j][i] = c[i][j]
    basis = ["e%d" % i for i in range(m)]
    how = draw(st.sampled_from(["none", "random", "adjoin"]))
    if how == "adjoin" and m < 4:
        return _adjoin_unit(AlgebraSpec(basis, c))
    return AlgebraSpec(basis, c, draw(vectors(m)) if how == "random" else None)


@st.composite
def brackets(draw):
    """heis3 or gl11; a random Z2-graded bracket; or a random bracket graded
    by Z2 or Z3 under a random theta of nonzero rationals, bicharacter or
    not, made theta-antisymmetric where theta allows it."""
    pick = draw(st.sampled_from(["registry", "super", "colour"]))
    if pick == "registry":
        return registry.build(draw(st.sampled_from(["heis3", "gl11"])))
    n = draw(st.integers(1, 4))
    mod = 2 if pick == "super" else draw(st.integers(2, 3))
    grading = draw(st.lists(st.integers(0, mod - 1), min_size=n, max_size=n))
    if pick == "super":
        theta = {(a, b): Fraction(-1 if a and b else 1)
                 for a in range(2) for b in range(2)}
    else:
        theta = {}
        for a, b in itertools.combinations_with_replacement(range(mod), 2):
            theta[a, b] = draw(st.sampled_from([Fraction(1), Fraction(-1)])
                               if a == b else nonzero)
            theta[b, a] = (1 / theta[a, b] if draw(st.booleans())
                           else draw(nonzero))
    antisymmetric = draw(st.booleans())
    b = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        if antisymmetric and j < i:
            continue
        target = (grading[i] + grading[j]) % mod
        b[i][j] = [draw(rats) if grading[k] == target else Fraction(0)
                   for k in range(n)]
        if antisymmetric:
            t = theta[grading[j], grading[i]]
            b[j][i] = [-t * x for x in b[i][j]]
    basis = ["e%d" % i for i in range(n)]
    if pick == "super":
        return SuperLieSpec(basis, grading, b)
    return ColorLieSpec(basis, [mod], [(g,) for g in grading],
                        {((a,), (c,)): v for (a, c), v in theta.items()}, b)


def _assert_both(seen, names):
    for name in names:
        assert {(name, True), (name, False)} <= seen, name


# ---------- algebras and coalgebras ----------

def matrix_algebra(m, skew=False, edit=None):
    """Symmetric m x m matrices under a.b = (ab + ba)/2, basis E_ij + E_ji
    (i <= j, row-major): Jordan, not associative for m > 1.  With skew,
    antisymmetric ones under ab - ba, basis E_ij - E_ji (i < j):
    anticommutative, so every pair sum H is zero.  edit = (i, j, k, v) sets
    c[i][j][k] = v."""
    pairs = [(i, j) for i in range(m) for j in range(i + skew, m)]
    sign = -1 if skew else 1

    def mat(p):
        x = [[0] * m for _ in range(m)]
        x[p[0]][p[1]], x[p[1]][p[0]] = 1, sign
        return x

    def product(x, y):
        return [[Fraction(sum(x[a][t] * y[t][b] + sign * y[a][t] * x[t][b]
                              for t in range(m)), 1 if skew else 2)
                 for b in range(m)] for a in range(m)]

    c = [[[product(mat(p), mat(q))[a][b] for a, b in pairs] for q in pairs]
         for p in pairs]
    if edit:
        i, j, k, v = edit
        c[i][j][k] = Fraction(v)
    return AlgebraSpec(["e%d%d" % p for p in pairs], c)


# Beyond the strategies' dim <= 4, n = 6 each: sym(3); three single-entry
# mutants of it (e00 e00 = 2 e00, e01 e01 without e00, and e00 e01 = e01
# but e01 e00 = e01/2, which is not commutative); so(4), where the pair sums
# vanish and single products do not; and Q^6, associative, so full holds.
FIXED_ALGEBRAS = [matrix_algebra(3), matrix_algebra(3, edit=(0, 0, 0, 2)),
                  matrix_algebra(3, edit=(1, 1, 0, 0)),
                  matrix_algebra(3, edit=(0, 1, 1, 1)),
                  matrix_algebra(4, skew=True),
                  AlgebraSpec(["e%d" % i for i in range(6)],
                              [[[int(i == j == k) for k in range(6)]
                                for j in range(6)] for i in range(6)])]


def algebra_verdicts(A):
    """The verdicts of A, checked against the dense reference."""
    comm = dense.commutative(A)
    want = (comm, dense.associative(A), dense.unit_valid(A),
            comm and dense.g_vanishes_on_w(A, "pattern3"))
    assert tuple(check_algebra_props(A)) == want
    seen = set(zip(("commutative", "associative", "unital", "jordan"), want))
    for mode in MODES:
        got = _g_vanishes_on_w(A, mode)
        assert got == dense.g_vanishes_on_w(A, mode)
        seen.add((mode, got))
    return seen


def test_algebra_verdicts_match_the_dense_reference():
    seen = set()

    @SEEDED
    @given(algebras())
    def check(A):
        seen.update(algebra_verdicts(A))

    check()
    _assert_both(seen, ("commutative", "associative", "unital", "jordan")
                 + MODES)
    _assert_both(set().union(*map(algebra_verdicts, FIXED_ALGEBRAS)), MODES)


def coalgebra_verdicts(A):
    """The verdicts of the dual coalgebra of A, checked against the dense
    reference."""
    C = dualize(A)
    want = dense.coalgebra_verdicts(C, "pattern3")
    props = coalgebra_props(C)
    assert (props.cocommutative, props.coassociative) == want[:2]
    seen = {("coassociative", props.coassociative)}
    if props.cocommutative:
        for mode in MODES:
            got = jordan_co_check(C, mode)
            assert got == dense.coalgebra_verdicts(C, mode)[2]
            seen.add((mode, got))
    return seen


def test_coalgebra_verdicts_match_the_dense_reference():
    seen = set()

    @SEEDED
    @given(algebras())
    def check(A):
        seen.update(coalgebra_verdicts(A))

    check()
    _assert_both(seen, ("coassociative",) + MODES)
    _assert_both(set().union(*map(coalgebra_verdicts, FIXED_ALGEBRAS)), MODES)


@SEEDED
@given(algebras().flatmap(lambda A: st.tuples(st.just(A), vectors(A.n),
                                               vectors(A.n))))
def test_mul_vec_matches_the_dense_product(args):
    A, u, v = args
    got = mul_vec(A, u, v)
    assert got == dense.mul_vec(A, u, v)
    assert all(type(x) is Fraction for x in got)


# ---------- graded brackets ----------

def test_colour_lie_verdicts_match_the_dense_reference():
    seen = set()

    @SEEDED
    @given(brackets())
    def check(S):
        got = tuple(validate_colorlie(S))
        assert got == dense.validate_colorlie(S)
        seen.update(zip(("bicharacter", "antisym", "jacobi"), got))

    check()
    _assert_both(seen, ("bicharacter", "antisym", "jacobi"))


def test_colour_lie_with_a_rational_theta():
    # theta(0,1) = 2, theta(1,0) = 1/2 over Z2: [e0,e1] = e1 and
    # [e1,e0] = -1/2 e1 are theta-antisymmetric only when theta's
    # denominator is carried through
    theta = {((0,), (0,)): 1, ((0,), (1,)): 2, ((1,), (0,)): Fraction(1, 2),
             ((1,), (1,)): 1}
    S = ColorLieSpec(["e0", "e1"], [2], [(0,), (1,)], theta,
                     [[[0, 0], [0, 1]], [[0, Fraction(-1, 2)], [0, 0]]])
    assert tuple(validate_colorlie(S)) == dense.validate_colorlie(S) \
        == (False, True, True)


# ---------- operators ----------

@SEEDED
@given(st.one_of(algebras(), brackets()).flatmap(
    lambda A: st.tuples(st.just(A), vectors(A.n), vectors(4),
                        st.none() | st.lists(st.integers(0, 1), min_size=A.n,
                                             max_size=A.n))))
def test_formula_op_matches_the_dense_template(args):
    A, z, coeffs, grading = args
    assert (_formula_op(A, z, *coeffs, grading=grading)
            == dense.formula_op(A, z, *coeffs, grading=grading))


@pytest.mark.parametrize("unital", [True, False])
def test_restricted_family_matches_the_dense_family(monkeypatch, unital):
    sym = registry.build("sym2jordan")
    J = sym if unital else AlgebraSpec(sym.basis, sym.c)
    families = []

    def recording(r, vecs):
        families.append(vecs)
        return _braid_kills(r, vecs)

    monkeypatch.setattr(constructions, "_braid_kills", recording)
    rep = jordan_r_restricted(J, 1, 1, 1)
    jp, offset = (J, 0) if unital else (_adjoin_unit(J), 1)
    want = dense.restricted_family(jp, offset)
    assert rep.family_size == len(want) == len(families[0])
    for vec, dense_vec in zip(families[0], want):
        assert {i: Fraction(x, jp.den) for i, x in vec.items() if x} == \
            {i: x for i, x in enumerate(dense_vec) if x}


# ---------- operator files ----------

@st.composite
def operators(draw):
    n = draw(st.integers(1, 3))
    rows = [draw(vectors(n * n)) for _ in range(n * n)]
    return LinOp2(n, mat_from_rows(rows))


@SEEDED
@given(operators())
def test_operator_json_round_trips_and_matches_the_old_writer(r):
    doc = linop2_to_json(r)
    assert json.dumps(doc) == json.dumps(dense.linop2_to_json(r))
    assert linop2_from_json(json.loads(json.dumps(doc))) == r


ENTRIES = {" 2": 2, "+1": 1, "2/4": Fraction(1, 2), "1.5": Fraction(3, 2),
           "-0": 0, "0/7": 0, "-12/8": Fraction(-3, 2), "007": 7,
           "\u0663": 3,    # an Arabic-Indic digit, read as before
           "0": 0, "00": 0, "0/5": 0, " 0": 0, "0.0": 0,
           "\uff13": 3}    # a fullwidth digit, read as before
BAD_ENTRIES = ["1/0", "1e3", 3, None, "1/-2", "--1", "1/", 0, "1e0",
               ["1"], {"p": "1"}]    # unhashable values


@pytest.mark.parametrize("text", sorted(ENTRIES))
def test_operator_entry_forms_parse_to_their_old_values(text):
    doc = {"kind": "linop2", "n": 1, "mat": [[text]]}
    op = linop2_from_json(doc)
    assert op.mat.entry(0, 0) == ENTRIES[text] == rat_from_str(text)
    assert op == dense.linop2_from_json(doc)


def test_mixed_entry_forms_share_one_denominator():
    entries = [" 2", "+1", "2/4", "1.5", "-0", "0/7", "-1/3", "5"]
    entries += ["1/6"] * 8
    doc = {"kind": "linop2", "n": 2, "mat": [entries[i:i + 4]
                                             for i in range(0, 16, 4)]}
    assert linop2_from_json(doc) == dense.linop2_from_json(doc)


@pytest.mark.parametrize("entry", BAD_ENTRIES)
def test_bad_operator_entries_still_exit_2(capsys, tmp_path, entry):
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"kind": "linop2", "n": 1, "mat": [[entry]]}))
    with pytest.raises((TypeError, ValueError)):
        dense.linop2_from_json(json.loads(path.read_text()))
    code = main(["ybe", "verify", str(path)])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def sparse_doc(entry, at):
    """A 3-dimensional operator file of "0" entries with entry at flat
    index at and one nonzero entry elsewhere."""
    flat = ["0"] * 81
    flat[at] = entry
    flat[(at + 40) % 81] = "-5/6"
    return {"kind": "linop2", "n": 3,
            "mat": [flat[i:i + 9] for i in range(0, 81, 9)]}


@pytest.mark.parametrize("at", [0, 37, 80])
def test_entries_among_zeros_read_as_the_dense_reader_reads_them(at):
    for text in ENTRIES:
        doc = sparse_doc(text, at)
        assert linop2_from_json(doc) == dense.linop2_from_json(doc)
    for entry in BAD_ENTRIES:
        doc = sparse_doc(entry, at)
        with pytest.raises((TypeError, ValueError)) as old:
            dense.linop2_from_json(doc)
        with pytest.raises(old.type):
            linop2_from_json(doc)


@pytest.mark.parametrize("n", [2, 3])
def test_sparse_operator_files_match_the_dense_reader_and_writer(n):
    rng = random.Random(1600 + n)
    for _ in range(30):
        density = rng.uniform(0, 0.1)
        rows = [[Fraction(rng.choice([-7, -2, -1, 1, 3, 12]), rng.randint(1, 6))
                 if rng.random() < density else 0 for _ in range(n * n)]
                for _ in range(n * n)]
        r = LinOp2(n, mat_from_rows(rows))
        text = json.dumps(linop2_to_json(r))
        assert text == json.dumps(dense.linop2_to_json(r))
        doc = json.loads(text)
        assert linop2_from_json(doc) == dense.linop2_from_json(doc) == r


# ---------- structure files ----------

def structure_doc(cells, unit):
    """A 3-dimensional algebra file whose 27 table cells repeat cells."""
    flat = list(itertools.islice(itertools.cycle(cells), 27))
    return {"kind": "algebra", "dim": 3, "basis": ["a", "b", "c"],
            "table": [[flat[9 * i + 3 * j:9 * i + 3 * j + 3] for j in range(3)]
                      for i in range(3)],
            "unit": list(unit)}


def test_structure_entries_parse_to_their_old_values():
    texts = sorted(ENTRIES)
    for r in range(len(texts)):
        cells = texts[r:] + texts[:r]
        doc = structure_doc(cells, cells[:3])
        A = structure_from_json(doc)
        for i, j, k in itertools.product(range(3), repeat=3):
            text = doc["table"][i][j][k]
            assert A.c[i][j][k] == rat_from_str(text) == ENTRIES[text]
        assert A.unit == [rat_from_str(t) for t in cells[:3]]


@pytest.mark.parametrize("where", ["table", "unit"])
@pytest.mark.parametrize("entry", BAD_ENTRIES)
def test_bad_structure_entries_fail_as_rat_from_str_fails(capsys, tmp_path,
                                                         entry, where):
    with pytest.raises((TypeError, ValueError)) as old:
        rat_from_str(entry)
    doc = structure_doc(["1/2", "0"], ["1", "1", "1"])
    if where == "table":
        doc["table"][2][1][0] = entry
    else:
        doc["unit"][1] = entry
    with pytest.raises(old.type) as new:
        structure_from_json(doc)
    assert str(new.value) == str(old.value)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code = main(["algebra-check", str(path)])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == "error: bad structure file %s: %s\n" % (path, old.value)


def test_to_rat_keeps_a_fraction_and_refuses_a_float():
    x = Fraction(3, 7)
    assert to_rat(x) is x
    with pytest.raises(TypeError, match="float"):
        to_rat(0.5)


# ---------- floats are refused ----------

Z2_THETA = {((a,), (b,)): 1 for a in range(2) for b in range(2)}


@pytest.mark.parametrize("build", [
    lambda: common_den([0.1, 1]),
    lambda: mat_from_rows([[0.1]]),
    lambda: AlgebraSpec(["a"], [[[0.1]]]),
    lambda: AlgebraSpec(["a"], [[[1]]], unit=[1.0]),
    lambda: CoalgebraSpec(["a"], [[[0.5]]]),
    lambda: SuperLieSpec(["a"], [0], [[[0.0]]]),
    lambda: ColorLieSpec(["a"], [1], [(0,)], {((0,), (0,)): 1.0}, [[[0]]]),
    lambda: mul_vec(registry.build("dual2"), [0.5, 0], [1, 0]),
    lambda: theorem21_instance(0.5, 1),
    lambda: theorem22_instance(0.5),
    # int() would truncate these to parity 0, modulus 2 and degree (1,)
    lambda: SuperLieSpec(["a"], [0.5], [[[0]]]),
    lambda: ColorLieSpec(["a"], [2.9], [(1,)], Z2_THETA, [[[0]]]),
    lambda: ColorLieSpec(["a"], [2], [(1.7,)], Z2_THETA, [[[0]]]),
], ids=["common_den", "mat_from_rows", "algebra", "unit", "coalgebra",
        "superlie", "theta", "mul_vec", "theorem21", "theorem22", "parity",
        "modulus", "degree"])
def test_floats_are_refused(build):
    with pytest.raises(TypeError, match="float"):
        build()
