"""Exact rational matrix layer, cross-checked against sympy where useful."""
import random
from fractions import Fraction

import pytest
import sympy

from _dense import (mat_add, mat_apply, mat_identity, mat_is_zero, mat_scale,
                    mat_sub, mat_transpose, mat_zeros, vec_is_zero)
from ybforge.exactla import (Mat, first_mismatch, kron, mat_from_columns,
                             mat_from_rows, mat_inverse, mat_mul,
                             project_onto, rat_from_str, rat_pair_from_str,
                             rat_to_str, row_space_basis)


def rows(m):
    return m.to_rows()


def rand_mat(rng, r, c, den=6):
    return mat_from_rows([[Fraction(rng.randint(-9, 9), rng.randint(1, den))
                           for _ in range(c)] for _ in range(r)])


def to_sympy(m):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row]
         for row in m.to_rows()])


def test_rat_str_roundtrip():
    for s, val in (("3", Fraction(3)), ("-5/7", Fraction(-5, 7)),
                   ("0", Fraction(0)), ("10/4", Fraction(5, 2))):
        assert rat_from_str(s) == val
    assert rat_to_str(Fraction(5, 2)) == "5/2"
    assert rat_to_str(Fraction(-3)) == "-3"
    assert rat_to_str(Fraction(0)) == "0"
    with pytest.raises((ValueError, ZeroDivisionError)):
        rat_from_str("1/0")


def test_rat_from_str_refuses_exponent_forms():
    assert rat_from_str(" 1.25 ") == Fraction(5, 4)
    for s in ("1e3000000", "1E3000000", "2.5e-1", "1/2e3"):
        with pytest.raises(ValueError, match="exponent"):
            rat_from_str(s)


# Every accepted form agrees with Fraction(s.strip()); the refusals are the
# exponent forms, zero denominators, non-strings and the Unicode digits that
# are not decimal digits (a decimal digit of any script is read as Fraction
# reads it).
ACCEPTED = ["0", "-0", "00", "007", "12", "-12", "3/4", "-3/4", "6/4",
            "0/5", "-0/5", "10/1", str(2 ** 80), "-%d/%d" % (3 ** 50, 2 ** 70),
            " 5", "5 ", "\t-2/3\n", "+1", "+1/2", "1.5", "-0.25", ".5", "5.",
            "0.0", "1_000", "1_0/2_0", "\u0663", "\uff13", "\uff11/\uff12",
            "-\u0661\u0662"]
REFUSED = [(s, ValueError) for s in (
    "1e0", "1E3", "2.5e-1", "1/2e3",                     # exponent forms
    "1/0", "-3/00", "0/0", " 1/0 ",                      # zero denominators
    "\u00b2", "\u00bd", "\u216b", "1\u00b2",                 # not decimal digits
    "", "-", "/", "1/", "/2", "1/-2", "--1", "- 1", "1 /2", "0x10", "inf",
    "nan")]
REFUSED += [(x, TypeError) for x in (0, 5, 0.5, None, b"1", Fraction(1, 2),
                                     ["1"])]


@pytest.mark.parametrize("s", ACCEPTED)
def test_rat_from_str_agrees_with_fraction_on_accepted_forms(s):
    want = Fraction(s.strip())
    assert rat_from_str(s) == want and type(rat_from_str(s)) is Fraction
    p, q = rat_pair_from_str(s)
    assert q > 0 and Fraction(p, q) == want


@pytest.mark.parametrize("s, error", REFUSED, ids=repr)
def test_rat_from_str_refusals(s, error):
    with pytest.raises(error):
        rat_from_str(s)
    with pytest.raises(error):
        rat_pair_from_str(s)


def test_mat_canonical_form():
    a = mat_from_rows([[Fraction(1, 2), Fraction(1, 3)],
                       [Fraction(0), Fraction(-1, 6)]])
    # common denominator 6, gcd-reduced
    assert a.den == 6
    assert a.num == [3, 2, 0, -1]
    b = mat_from_rows([[Fraction(2, 4), Fraction(2, 6)],
                       [Fraction(0), Fraction(-1, 6)]])
    assert a == b
    assert hash(a) == hash(b)


def test_mat_entry_and_rows():
    a = mat_from_rows([[1, 2], [3, 4]])
    assert a.entry(1, 0) == 3
    assert rows(a) == [[1, 2], [3, 4]]
    with pytest.raises(IndexError):
        a.entry(2, 0)


def test_mul_matches_sympy():
    rng = random.Random(7)
    for _ in range(10):
        a = rand_mat(rng, 4, 5)
        b = rand_mat(rng, 5, 3)
        assert to_sympy(mat_mul(a, b)) == to_sympy(a) * to_sympy(b)


def test_mul_shape_mismatch():
    a = mat_zeros(2, 3)
    b = mat_zeros(2, 3)
    with pytest.raises(ValueError):
        mat_mul(a, b)


def test_kron_matches_sympy():
    rng = random.Random(8)
    a = rand_mat(rng, 2, 3)
    b = rand_mat(rng, 3, 2)
    got = to_sympy(kron(a, b))
    want = sympy.Matrix(sympy.kronecker_product(to_sympy(a), to_sympy(b)))
    assert got == want


def test_add_sub_scale():
    a = mat_from_rows([[1, Fraction(1, 2)], [0, 2]])
    b = mat_from_rows([[Fraction(1, 3), 1], [1, -2]])
    assert rows(mat_add(a, b)) == [[Fraction(4, 3), Fraction(3, 2)], [1, 0]]
    assert mat_is_zero(mat_sub(a, a))
    assert rows(mat_scale(a, Fraction(-2))) == [[-2, -1], [0, -4]]
    assert mat_scale(a, 0) == mat_zeros(2, 2)


def test_transpose_and_identity():
    a = mat_from_rows([[1, 2, 3], [4, 5, 6]])
    assert rows(mat_transpose(a)) == [[1, 4], [2, 5], [3, 6]]
    i = mat_identity(3)
    assert mat_mul(i, i) == i


def test_first_mismatch():
    a = mat_from_rows([[1, 2], [3, 4]])
    b = mat_from_rows([[1, 2], [3, 5]])
    assert first_mismatch(a, a) is None
    assert first_mismatch(a, b) == (1, 1)


def test_inverse_matches_sympy():
    rng = random.Random(9)
    hits = 0
    while hits < 8:
        a = rand_mat(rng, 4, 4)
        sa = to_sympy(a)
        if sa.det() == 0:
            assert mat_inverse(a) is None
            continue
        hits += 1
        inv = mat_inverse(a)
        assert to_sympy(inv) == sa.inv()
        assert mat_mul(a, inv) == mat_identity(4)


def test_inverse_singular():
    a = mat_from_rows([[1, 2], [2, 4]])
    assert mat_inverse(a) is None


def test_mat_apply():
    a = mat_from_rows([[1, 2], [Fraction(1, 2), -1]])
    assert mat_apply(a, [Fraction(3), Fraction(1)]) == [Fraction(5), Fraction(1, 2)]
    with pytest.raises(ValueError):
        mat_apply(a, [1, 2, 3])


def test_mat_from_columns():
    cols = [[1, 0, Fraction(1, 2)], [2, 1, 0]]
    m = mat_from_columns(cols)
    assert m.rows == 3 and m.cols == 2
    assert rows(m) == [[1, 2], [0, 1], [Fraction(1, 2), 0]]


def test_row_space_basis_rank_matches_sympy():
    rng = random.Random(10)
    vecs = [[Fraction(rng.randint(-3, 3)) for _ in range(5)] for _ in range(7)]
    basis = row_space_basis(vecs)
    assert len(basis) == sympy.Matrix(vecs).rank()
    # every input vector lies in the span: projection reproduces it
    for v in vecs:
        assert project_onto([list(b) for b in basis], v) == v


def test_row_space_basis_deterministic():
    vecs = [[0, 1, 1], [1, 0, 0], [1, 1, 1]]
    b1 = row_space_basis([list(v) for v in vecs])
    b2 = row_space_basis([list(reversed(v))[::-1] for v in vecs])
    assert b1 == b2


def test_project_onto():
    basis = [[Fraction(1), Fraction(0), Fraction(0)],
             [Fraction(0), Fraction(1), Fraction(0)]]
    # component of (1,2,3) inside the xy-plane is (1,2,0)
    res = project_onto(basis, [Fraction(1), Fraction(2), Fraction(3)])
    assert res == [Fraction(1), Fraction(2), Fraction(0)]
    ortho = project_onto(basis, [Fraction(0), Fraction(0), Fraction(5)])
    assert vec_is_zero(ortho)
    with pytest.raises(ValueError):
        project_onto([[Fraction(1), Fraction(0)], [Fraction(2), Fraction(0)]],
                     [Fraction(1), Fraction(1)])

