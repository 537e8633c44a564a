"""Lifts, braid/QYBE checks, commutators and the restricted braid check.

Witness triples for the two dual2 operators are frozen from an independent
oracle run (same row-major first-mismatch convention).
"""
import random
from fractions import Fraction

import pytest

from ybforge import registry
from ybforge.constructions import r_algebra
from _dense import (compose, identity2, mat_apply, mat_identity, mat_is_zero,
                    twist, yb_commutator)
from ybforge.exactla import Mat, mat_from_rows
from ybforge.ybcore import (LinOp2, LinOp3, braid_check, braid_qybe_equiv,
                            braid_witness, is_yb_operator, lift,
                            linop2_from_json, linop2_to_json, qybe_check,
                            qybe_witness, restricted_braid_check, with_twist,
                            wxz_check)

DUAL2 = registry.build("dual2")


def basis3(n, i, j, k):
    v = [Fraction(0)] * n ** 3
    v[i * n * n + j * n + k] = Fraction(1)
    return v


def test_linop2_shape_guard():
    with pytest.raises(ValueError):
        LinOp2(2, mat_identity(3))
    with pytest.raises(ValueError):
        LinOp3(2, mat_identity(4))


def test_twist_swaps_factors():
    n = 3
    t = twist(n)
    for i in range(n):
        for j in range(n):
            v = [Fraction(0)] * n * n
            v[i * n + j] = Fraction(1)
            out = mat_apply(t.mat, v)
            want = [Fraction(0)] * n * n
            want[j * n + i] = Fraction(1)
            assert out == want


def test_twist_is_involution():
    for n in (2, 3):
        assert compose(twist(n), twist(n)) == identity2(n)


def test_lift_shapes_and_bad_pos():
    r = twist(2)
    for pos in (12, 13, 23):
        op = lift(r, pos)
        assert op.mat.rows == op.mat.cols == 8
    with pytest.raises(ValueError):
        lift(r, 21)


def test_lift13_of_twist_is_outer_swap():
    n = 2
    op = lift(twist(n), 13)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out = mat_apply(op.mat, basis3(n, i, j, k))
                assert out == basis3(n, k, j, i)


def test_lift12_lift23_act_on_expected_slots():
    n = 2
    t = twist(n)
    r12, r23 = lift(t, 12), lift(t, 23)
    assert mat_apply(r12.mat, basis3(n, 0, 1, 0)) == basis3(n, 1, 0, 0)
    assert mat_apply(r23.mat, basis3(n, 0, 1, 0)) == basis3(n, 0, 0, 1)


def test_twist_satisfies_braid_and_qybe():
    t = twist(2)
    assert braid_check(t)
    assert qybe_check(t)
    assert braid_witness(t) is None
    assert qybe_witness(t) is None


FROZEN_CASES = [
    # (alpha, beta, gamma, braid, braid witness, qybe, qybe witness)
    (1, 2, 1, True, None, False, ((0, 1, 0), (0, 0, 1))),
    (2, 1, 3, False, ((0, 0, 1), (0, 0, 1)), False, ((0, 1, 0), (0, 0, 1))),
]


@pytest.mark.parametrize("al,be,ga,b,bw,q,qw", FROZEN_CASES)
def test_frozen_braid_qybe_witnesses(al, be, ga, b, bw, q, qw):
    r = r_algebra(DUAL2, Fraction(al), Fraction(be), Fraction(ga))
    assert braid_check(r) == b
    assert braid_witness(r) == bw
    assert qybe_check(r) == q
    assert qybe_witness(r) == qw


def test_is_yb_operator_report():
    good = r_algebra(DUAL2, Fraction(1), Fraction(2), Fraction(1))
    rep = is_yb_operator(good)
    assert rep.braid and rep.invertible and rep.yb
    bad = r_algebra(DUAL2, Fraction(2), Fraction(1), Fraction(3))
    rep = is_yb_operator(bad)
    assert not rep.braid and not rep.yb
    # non-invertible: the zero operator trivially satisfies the braid relation
    zero = LinOp2(2, Mat(4, 4, [0] * 16, 1))
    rep = is_yb_operator(zero)
    assert rep.braid and not rep.invertible and not rep.yb


def test_braid_qybe_equivalence_frozen_and_random():
    for al, be, ga, _b, _bw, _q, _qw in FROZEN_CASES:
        r = r_algebra(DUAL2, Fraction(al), Fraction(be), Fraction(ga))
        assert braid_qybe_equiv(r)
    rng = random.Random(7)
    for _ in range(20):
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                 for _ in range(4)] for _ in range(4)]
        assert braid_qybe_equiv(LinOp2(2, mat_from_rows(rows)))


def test_with_twist_equals_the_dense_composite():
    rng = random.Random(22)
    for n in (1, 2, 3, 4):
        t = twist(n)
        for _ in range(5):
            # most entries zero, denominators up to 6
            rows = [[Fraction(rng.choice((0, 0, rng.randint(-9, 9))),
                              rng.randint(1, 6))
                     for _ in range(n * n)] for _ in range(n * n)]
            r = LinOp2(n, mat_from_rows(rows))
            assert with_twist(r) == compose(r, t)
            assert with_twist(r, left=True) == compose(t, r)
            assert with_twist(with_twist(r), left=True) == compose(
                t, compose(r, t))


def test_yb_commutator_zero_iff_qybe():
    t = twist(2)
    assert mat_is_zero(yb_commutator(t, t, t).mat)
    r = r_algebra(DUAL2, Fraction(1), Fraction(2), Fraction(1))
    assert not mat_is_zero(yb_commutator(r, r, r).mat)
    with pytest.raises(ValueError):
        yb_commutator(t, twist(3), t)


def test_wxz_check_reports():
    t = twist(2)
    rep = wxz_check(t, t, t)
    assert rep.all_hold() and rep.www and rep.zzz and rep.wxx and rep.xxz
    r = r_algebra(DUAL2, Fraction(1), Fraction(2), Fraction(1))
    rep = wxz_check(r, t, t)
    assert not rep.www
    assert not rep.all_hold()
    with pytest.raises(ValueError):
        wxz_check(t, twist(3), t)


def test_restricted_braid_check():
    bad = r_algebra(DUAL2, Fraction(2), Fraction(1), Fraction(3))
    full = [basis3(2, i, j, k)
            for i in range(2) for j in range(2) for k in range(2)]
    assert restricted_braid_check(bad, full) == braid_check(bad)
    assert restricted_braid_check(bad, [])
    assert restricted_braid_check(bad, [[Fraction(0)] * 8])
    with pytest.raises(ValueError):
        restricted_braid_check(bad, [[Fraction(1)] * 7])
    good = r_algebra(DUAL2, Fraction(1), Fraction(2), Fraction(1))
    assert restricted_braid_check(good, full)


def test_linop2_json_roundtrip():
    r = r_algebra(DUAL2, Fraction(1, 2), Fraction(-3), Fraction(5, 7))
    doc = linop2_to_json(r)
    assert doc["kind"] == "linop2" and doc["n"] == 2
    back = linop2_from_json(doc)
    assert back == r
    with pytest.raises(ValueError):
        linop2_from_json({"kind": "algebra", "n": 2, "mat": []})
