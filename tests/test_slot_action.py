"""Slot action against a dense reference.

The reference lifts R to V(x)3 with explicit Kronecker products, and R13 as
P (R(x)I) P with P the permutation matrix that swaps slots 2 and 3.  Braid
and QYBE words are then multiplied as dense matrices, and the witness is the
row-major first mismatch of the two products.  The restricted braid check
is compared with the dense braid difference applied to rational vectors.
Random sparse rational operators for n = 2 and 3 come from a seeded
hypothesis strategy.
"""
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ybforge.constructions import r_algebra
from _dense import mat_apply, mat_identity, mat_sub, twist, yb_commutator
from ybforge.exactla import Mat, first_mismatch, kron, mat_from_rows, mat_mul
from ybforge.registry import build
from ybforge.structures import AlgebraSpec
from ybforge.ybcore import (LinOp2, braid_check, braid_witness, lift,
                            qybe_check, qybe_witness, restricted_braid_check)

SEEDED = settings(derandomize=True, max_examples=60, deadline=None,
                  database=None)


def swap23(n):
    """Permutation matrix e_i(x)e_j(x)e_k -> e_i(x)e_k(x)e_j."""
    n3 = n ** 3
    num = [0] * (n3 * n3)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                num[(i * n * n + k * n + j) * n3 + i * n * n + j * n + k] = 1
    return Mat(n3, n3, num)


def dense_lift(r, pos):
    ident = mat_identity(r.n)
    if pos == 12:
        return kron(r.mat, ident)
    if pos == 23:
        return kron(ident, r.mat)
    p = swap23(r.n)
    return mat_mul(p, mat_mul(kron(r.mat, ident), p))


def dense_word(*factors):
    out = factors[0]
    for f in factors[1:]:
        out = mat_mul(out, f)
    return out


def braid_sides(r):
    r12, r23 = dense_lift(r, 12), dense_lift(r, 23)
    return dense_word(r12, r23, r12), dense_word(r23, r12, r23)


def yb_sides(r, s, t):
    r12, s13, t23 = dense_lift(r, 12), dense_lift(s, 13), dense_lift(t, 23)
    return dense_word(r12, s13, t23), dense_word(t23, s13, r12)


def dense_witness(n, lhs, rhs):
    hit = first_mismatch(lhs, rhs)
    if hit is None:
        return None
    row, col = hit

    def unflatten(flat):
        return (flat // (n * n), (flat // n) % n, flat % n)
    return unflatten(col), unflatten(row)


ENTRY = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5)))


@st.composite
def operators(draw, n=None):
    if n is None:
        n = draw(st.sampled_from((2, 3)))
    rows = [[draw(ENTRY) for _ in range(n * n)] for _ in range(n * n)]
    return LinOp2(n, mat_from_rows(rows))


@st.composite
def operator_triples(draw):
    n = draw(st.sampled_from((2, 3)))
    return draw(operators(n)), draw(operators(n)), draw(operators(n))


# Operators that satisfy the braid relation: scaled twists and the
# Yang-Baxter cases of the three-coefficient family over dual2.
BRAID_PASS = [
    LinOp2(2, Mat(4, 4, [Fraction(-3, 2) * x for x in twist(2).mat.num])),
    twist(3),
    r_algebra(build("dual2"), 1, 2, 1),
    r_algebra(build("dual2"), Fraction(2, 3), Fraction(-5), Fraction(-5)),
]


@SEEDED
@given(operators())
def test_braid_matches_dense(r):
    lhs, rhs = braid_sides(r)
    assert braid_check(r) == (lhs == rhs)
    assert braid_witness(r) == dense_witness(r.n, lhs, rhs)


@SEEDED
@given(operators())
def test_qybe_matches_dense(r):
    lhs, rhs = yb_sides(r, r, r)
    assert qybe_check(r) == (lhs == rhs)
    assert qybe_witness(r) == dense_witness(r.n, lhs, rhs)


@SEEDED
@given(operator_triples())
def test_yb_commutator_matches_dense(ops):
    lhs, rhs = yb_sides(*ops)
    assert yb_commutator(*ops).mat == mat_sub(lhs, rhs)


@SEEDED
@given(operators(), st.sampled_from((12, 13, 23)))
def test_lift_matches_dense(r, pos):
    assert lift(r, pos).mat == dense_lift(r, pos)


@st.composite
def operator_and_vectors(draw):
    r = draw(operators())
    n3 = r.n ** 3
    diff = mat_sub(*braid_sides(r))
    cols = range(n3)
    if draw(st.booleans()):
        # only columns where both braid words agree, so the check passes
        cols = [c for c in cols if all(diff.entry(i, c) == 0 for i in range(n3))]
    vecs = []
    for _ in range(draw(st.integers(1, 3))):
        v = [Fraction(0)] * n3
        for c in cols:
            v[c] = draw(ENTRY)
        vecs.append(v)
    return r, diff, vecs


def test_restricted_braid_check_matches_dense():
    seen = set()

    @SEEDED
    @given(operator_and_vectors())
    def check(case):
        r, diff, vecs = case
        expect = all(not any(mat_apply(diff, v)) for v in vecs)
        assert restricted_braid_check(r, vecs) == expect
        seen.add(expect)

    check()
    assert seen == {True, False}


def test_known_braid_solutions_pass_both_ways():
    for r in BRAID_PASS:
        lhs, rhs = braid_sides(r)
        assert lhs == rhs
        assert braid_check(r) and braid_witness(r) is None
        lhs, rhs = yb_sides(r, r, r)
        assert qybe_check(r) == (lhs == rhs)
        assert qybe_witness(r) == dense_witness(r.n, lhs, rhs)


def mat3():
    """The 3x3 matrix algebra, basis E_ab row-major."""
    names = [(a, b) for a in range(3) for b in range(3)]
    table = [[[0] * 9 for _ in range(9)] for _ in range(9)]
    for i, (a, b) in enumerate(names):
        for j, (p, q) in enumerate(names):
            if b == p:
                table[i][j][names.index((a, q))] = 1
    unit = [1 if a == b else 0 for a, b in names]
    return AlgebraSpec(["E%d%d" % (a + 1, b + 1) for a, b in names], table,
                       unit=unit)


def test_mat3_fail_witness():
    algebra = mat3()
    fail = r_algebra(algebra, 3, 1, 2)
    assert not braid_check(fail)
    assert braid_witness(fail) == ((0, 1, 3), (0, 0, 0))
    passing = r_algebra(algebra, 1, 2, 1)
    assert braid_check(passing)
    assert qybe_witness(passing) == ((0, 1, 3), (0, 0, 0))
