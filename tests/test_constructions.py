"""Operator constructions: the three-scalar family, colored and one-parameter
families, WXZ triples, graded bracket operators and the restricted check.

All expected values are frozen from independent oracle runs.
"""
from fractions import Fraction

import pytest

from ybforge import registry
from ybforge.constructions import (NotYangBaxterError, colored_qybe_verify,
                                   jordan_r_restricted, matrix_form8,
                                   oneparam_verify, phi_super, r_algebra,
                                   r_colored, r_super_colored, s_oneparam,
                                   thm32_inverse, thm32_predict, wxz_from_colored,
                                   wxz_thm38)
from _dense import (compose, identity2, mat_add, mat_identity, mat_scale,
                    twist)
from ybforge.exactla import mat_mul
from ybforge.paramgrid import GridConfigError, default_grid
from ybforge.structures import MissingUnitError, PreconditionError
from ybforge.ybcore import LinOp2, braid_check, is_yb_operator, wxz_check

DUAL2 = registry.build("dual2")
MAT2 = registry.build("mat2")
HEIS3 = registry.build("heis3")
GL11 = registry.build("gl11")
Z_HEIS = [0, 0, 1]
Z_GL = [1, 1, 0, 0]


# ---------- three-scalar family ----------

PREDICT_CASES = [
    ((1, 2, 1), True), ((2, 1, 1), True), ((1, 1, 1), True),
    ((0, 0, 5), True), ((0, 0, -1), True),
    ((2, 1, 3), False), ((0, 0, 0), False), ((1, 0, 1), False),
    ((0, 1, 0), False), ((1, 2, 3), False), ((1, 2, 2), True),
]


@pytest.mark.parametrize("abc,want", PREDICT_CASES)
def test_thm32_predict(abc, want):
    assert thm32_predict(*abc) == want


def test_yb_iff_predict_on_sweep():
    # predict covers braid AND invertibility: (-2,0,-2) satisfies the braid
    # relation but is singular, so the bare braid verdict would disagree
    vals = [Fraction(v) for v in range(-2, 3)]
    for al in vals:
        for be in vals:
            for ga in vals:
                r = r_algebra(DUAL2, al, be, ga)
                assert is_yb_operator(r).yb == thm32_predict(al, be, ga), \
                    (al, be, ga)
    edge = is_yb_operator(r_algebra(DUAL2, -2, 0, -2))
    assert edge.braid and not edge.invertible and not edge.yb


def test_r_algebra_guards():
    with pytest.raises(MissingUnitError):
        r_algebra(registry.build("t21", -1, -1), 1, 1, 1)
    one_dim = type(DUAL2)(["1"], [[[1]]], unit=[1])
    with pytest.raises(PreconditionError):
        r_algebra(one_dim, 1, 1, 1)


def test_thm32_inverse_products():
    cases = [(1, 2, 1), (3, 3, 3), (0, 0, Fraction(5, 7)), (Fraction(1, 2), 4, 4)]
    for al, be, ga in cases:
        r = r_algebra(MAT2, al, be, ga)
        s = thm32_inverse(MAT2, al, be, ga)
        assert mat_mul(r.mat, s.mat) == mat_identity(16)
        assert mat_mul(s.mat, r.mat) == mat_identity(16)


def test_thm32_inverse_rejects_non_yb():
    with pytest.raises(NotYangBaxterError):
        thm32_inverse(DUAL2, 2, 1, 3)


# ---------- normal-form display ----------

FORM8_DUAL2 = {
    -2: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 3, -2, 0], [0, 0, 0, 2]],
    -1: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 2, -1, 0], [0, 0, 0, 1]],
    1: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
    2: [[1, 0, 0, 0], [0, 1, 0, 0], [0, -1, 2, 0], [0, 0, 0, -2]],
    3: [[1, 0, 0, 0], [0, 1, 0, 0], [0, -2, 3, 0], [0, 0, 0, -3]],
}


@pytest.mark.parametrize("q", sorted(FORM8_DUAL2))
def test_form8_dual2(q):
    res = matrix_form8(DUAL2, q, 1)
    assert res.matched and res.q8 == q and res.eta8 == 0
    assert res.display.to_rows() == [[Fraction(x) for x in row]
                                     for row in FORM8_DUAL2[q]]
    # q8 depends only on the ratio alpha/beta
    scaled = matrix_form8(DUAL2, 2 * q, 2)
    assert scaled.matched and scaled.q8 == q
    assert scaled.display == res.display


def test_form8_split2_eta_one():
    res = matrix_form8(registry.build("split2", Fraction(1, 2)), 1, 1)
    assert res.matched and res.q8 == 1 and res.eta8 == 1
    assert res.display.to_rows() == [
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, -1]]


def test_form8_split2_mismatch():
    res = matrix_form8(registry.build("split2", 1), 1, 1)
    assert not res.matched
    assert res.q8 is None and res.eta8 is None
    assert res.offending == (3, 0) and res.value == 2


def test_form8_guards():
    with pytest.raises(PreconditionError):
        matrix_form8(DUAL2, 0, 1)
    with pytest.raises(PreconditionError):
        matrix_form8(DUAL2, 1, 0)
    with pytest.raises(PreconditionError):
        matrix_form8(MAT2, 1, 1)
    # unit present but not first in the basis
    swapped = type(DUAL2)(["x", "1"],
                          [[[0, 0], [1, 0]], [[1, 0], [0, 1]]], unit=[0, 1])
    with pytest.raises(PreconditionError):
        matrix_form8(swapped, 1, 1)


# ---------- colored family ----------

def test_colored_family_certified():
    grid = default_grid(4)
    for a in (DUAL2, MAT2):
        for p in (-2, -1, 1, 2):
            for q in (-2, -1, 1, 2):
                res = colored_qybe_verify(r_colored(a, p, q), grid)
                assert res.verdict and res.certified, (a.basis, p, q)
                assert bool(res)


def test_colored_small_grid_not_certified():
    res = colored_qybe_verify(r_colored(DUAL2, 2, 3), [0, 1, 2])
    assert res.verdict and not res.certified
    assert res.certificate["u"] == (3, 3)


def test_colored_corrupted_witness():
    p, q = Fraction(2), Fraction(3)
    base = r_colored(DUAL2, p, q)
    tau = twist(2)

    def crooked(u, v):
        good = base.evaluator(u, v)
        bump = mat_scale(tau.mat, 2 * (p * Fraction(u) - q * Fraction(v)))
        return LinOp2(2, mat_add(good.mat, bump))

    fam = type(base)("colored", 2, base.params, crooked)
    res = colored_qybe_verify(fam, default_grid(4))
    assert not res.verdict and not res.certified
    assert res.witness == {"u": 0, "v": 1, "w": 2}
    assert not bool(res)


def test_colored_grid_guards():
    fam = r_colored(DUAL2, 1, 1)
    with pytest.raises(GridConfigError):
        colored_qybe_verify(fam, [0, 1, 1, 2])
    with pytest.raises(MissingUnitError):
        r_colored(registry.build("t21", -1, -1), 1, 1)


# ---------- one-parameter family ----------

def test_s_oneparam_rejects_zero():
    fam = s_oneparam(DUAL2, 2)
    with pytest.raises(ValueError):
        fam(0)


def test_oneparam_certified():
    grid = default_grid(7, nonzero=True)
    for a in (DUAL2, MAT2):
        for q in (-1, 1, 2, 3):
            res = oneparam_verify(a, q, grid)
            assert res.verdict and res.certified, (a.basis, q)
            assert res.certificate["t1"] == (7, 6)


def test_oneparam_grid_guards():
    with pytest.raises(GridConfigError):
        oneparam_verify(DUAL2, 2, [1, 2, 2])
    with pytest.raises(GridConfigError):
        oneparam_verify(DUAL2, 2, [0, 1, 2])


def test_oneparam_small_grid_not_certified():
    res = oneparam_verify(DUAL2, 2, [1, 2, 3])
    assert res.verdict and not res.certified


# ---------- WXZ systems ----------

def test_wxz_thm38_grid():
    for a in (DUAL2, MAT2):
        for lam in (-2, -1, 1, 2):
            for mu in (-2, -1, 1, 2):
                w, x, z = wxz_thm38(a, lam, mu)
                assert wxz_check(w, x, z).all_hold(), (a.basis, lam, mu)


def test_wxz_thm38_collapses_at_one():
    w, x, z = wxz_thm38(DUAL2, 1, 1)
    assert w == x == z
    assert wxz_check(w, x, z).all_hold()


def test_wxz_from_colored_polynomial():
    fam = r_colored(DUAL2, 2, 3)
    for s in range(4):
        for t in range(4):
            w, x, z = wxz_from_colored(fam, s, t)
            assert wxz_check(w, x, z).all_hold(), (s, t)


def test_wxz_from_super_colored():
    at = {0: 1, 1: 2, 2: 3}
    fam = r_super_colored(HEIS3, Z_HEIS, at, {0: 1, 1: 1, 2: 1}, (0, 1, 2))
    for s in range(3):
        for t in range(3):
            w, x, z = wxz_from_colored(fam, s, t)
            assert wxz_check(w, x, z).all_hold(), (s, t)
    prop = r_super_colored(GL11, Z_GL, at, {0: 2, 1: 4, 2: 6}, (0, 1, 2))
    for s in range(3):
        for t in range(3):
            w, x, z = wxz_from_colored(prop, s, t)
            assert wxz_check(w, x, z).all_hold(), (s, t)


def test_wxz_from_super_colored_non_proportional_breaks():
    fam = r_super_colored(GL11, Z_GL, {0: 1, 1: 2, 2: 3},
                          {0: 1, 1: 2, 2: -1}, (0, 1, 2))
    w, x, z = wxz_from_colored(fam, 1, 2)
    rep = wxz_check(w, x, z)
    assert rep.www and rep.zzz and rep.wxx and not rep.xxz
    assert not rep.all_hold()


def test_wxz_from_colored_color_guard():
    at = {0: 1, 1: 2, 2: 3}
    fam = r_super_colored(HEIS3, Z_HEIS, at, at, (0, 1, 2))
    with pytest.raises(GridConfigError):
        wxz_from_colored(fam, 0, 5)


# ---------- graded bracket operators ----------

@pytest.mark.parametrize("alpha", range(-2, 3))
def test_phi_super_yang_baxter(alpha):
    for lie, z in ((HEIS3, Z_HEIS), (GL11, Z_GL)):
        pair = phi_super(lie, z, alpha)
        assert is_yb_operator(pair.op).yb
        assert compose(pair.op, pair.inverse) == identity2(lie.n)
        assert compose(pair.inverse, pair.op) == identity2(lie.n)


def test_phi_super_checks_its_inverse(monkeypatch):
    # the check must raise even under `python -O`, so it is no assert
    from ybforge import constructions
    formula_op = constructions._formula_op

    def doubled_inverse(A, z, c_ab1, *rest):
        # phi is the one call with c_ab1 = alpha != 0; its inverse has 0
        op = formula_op(A, z, c_ab1, *rest)
        return op if c_ab1 else LinOp2(op.n, mat_scale(op.mat, 2))

    monkeypatch.setattr(constructions, "_formula_op", doubled_inverse)
    with pytest.raises(RuntimeError, match="formula inverse failed"):
        phi_super(HEIS3, Z_HEIS, 1)


def test_phi_super_rejects_non_central():
    with pytest.raises(PreconditionError):
        phi_super(HEIS3, [1, 0, 0], 1)
    with pytest.raises(PreconditionError):
        phi_super(GL11, [0, 0, 1, 0], 1)   # odd element


def test_super_colored_certified_families():
    at = {0: 1, 1: 2, 2: 3}
    cases = [
        (HEIS3, Z_HEIS, at, {0: 1, 1: 1, 2: 1}),
        (GL11, Z_GL, at, {0: 2, 1: 4, 2: 6}),
        (GL11, Z_GL, at, dict(at)),
    ]
    for lie, z, a, b in cases:
        fam = r_super_colored(lie, z, a, b, (0, 1, 2))
        res = colored_qybe_verify(fam, [0, 1, 2])
        assert res.verdict and res.certified
        assert res.certificate["u"] == (3, 2)


def test_super_colored_non_proportional_witness():
    fam = r_super_colored(GL11, Z_GL, {0: 1, 1: 2, 2: 3},
                          {0: 1, 1: 2, 2: 4}, (0, 1, 2))
    res = colored_qybe_verify(fam, [0, 1, 2])
    assert not res.verdict
    assert res.witness == {"u": 0, "v": 2, "w": 0}


def test_super_colored_partial_grid_not_certified():
    at = {0: 1, 1: 2, 2: 3}
    fam = r_super_colored(HEIS3, Z_HEIS, at, {0: 1, 1: 1, 2: 1}, (0, 1, 2))
    res = colored_qybe_verify(fam, [0, 1])
    assert res.verdict and not res.certified


def test_super_colored_guards():
    at = {0: 1, 1: 2}
    with pytest.raises(ValueError):
        r_super_colored(HEIS3, Z_HEIS, at, at, (0, 1, 2))  # tables not total
    with pytest.raises(PreconditionError):
        r_super_colored(HEIS3, [1, 0, 0], {0: 1}, {0: 1}, (0,))
    fam = r_super_colored(HEIS3, Z_HEIS, {0: 1}, {0: 1}, (0,))
    with pytest.raises(GridConfigError):
        colored_qybe_verify(fam, [0, 5])


# ---------- restricted braid over Jordan algebras ----------

RESTRICTED_CASES = [
    # (scalars, restricted, full)
    ((1, 1, 1), True, False),
    ((1, 2, 1), True, False),
    ((2, 1, 3), False, False),
    ((1, 1, 2), False, False),
]


@pytest.mark.parametrize("abc,restricted,full", RESTRICTED_CASES)
def test_jordan_r_restricted_sym2(abc, restricted, full):
    # sym2jordan is unital (E11 + E22), so nothing is adjoined
    rep = jordan_r_restricted(registry.build("sym2jordan"), *abc)
    assert rep.restricted == restricted
    assert rep.full == full
    assert not rep.unit_adjoined
    assert rep.family_size == 60


def test_jordan_r_restricted_t21_is_unconditional():
    rep = jordan_r_restricted(registry.build("t21", -1, -1), 1, 1, 1)
    assert rep.restricted and rep.full and rep.unit_adjoined
    assert rep.family_size == 16


def test_jordan_r_restricted_rejects_non_jordan():
    with pytest.raises(PreconditionError):
        jordan_r_restricted(MAT2, 1, 1, 1)


# ---------- floats are refused ----------

# 0.1 would otherwise silently become 3602879701896397/36028797018963968
@pytest.mark.parametrize("build", [
    lambda: r_algebra(DUAL2, 0.1, 1, 1),
    lambda: thm32_predict(1, 0.5, 1),
    lambda: thm32_inverse(DUAL2, 1, 2, 1.0),
    lambda: matrix_form8(DUAL2, 0.5, 1),
    lambda: r_colored(DUAL2, 2, 0.5),
    lambda: s_oneparam(DUAL2, 0.5),
    lambda: s_oneparam(DUAL2, 2)(0.5),
    lambda: wxz_thm38(DUAL2, 1, 0.5),
    lambda: wxz_from_colored(r_colored(DUAL2, 2, 3), 0.5, 1),
    lambda: phi_super(HEIS3, Z_HEIS, 0.5),
    lambda: r_super_colored(HEIS3, Z_HEIS, {0: 0.5}, {0: 1}, (0,)),
    lambda: oneparam_verify(DUAL2, 2, [1, 2, 0.5]),
    lambda: colored_qybe_verify(r_colored(DUAL2, 2, 3), [0, 1, 0.5]),
    lambda: registry.build("split2", 0.1),
    lambda: registry.build("t21", 0.5, 1),
], ids=["r_algebra", "thm32_predict", "thm32_inverse", "matrix_form8",
        "r_colored", "s_oneparam", "oneparam_family", "wxz_thm38",
        "wxz_from_colored", "phi_super", "r_super_colored", "oneparam_grid",
        "colored_grid", "registry_split2", "registry_t21"])
def test_floats_are_refused(build):
    with pytest.raises(TypeError, match="float"):
        build()
