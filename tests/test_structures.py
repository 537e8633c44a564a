"""Structure-constant containers and property checks.

Expected verdicts were computed with a separate plain-Fraction oracle before
this package existed; they are frozen here.
"""
from fractions import Fraction

import pytest

from ybforge import registry
from ybforge.structures import (AlgebraSpec, CoalgebraSpec, ColorLieSpec,
                                PreconditionError, SuperLieSpec, basis_vec,
                                center_contains, check_algebra_props,
                                coalgebra_props, dualize, dualize_co,
                                group_elements, jordan_co_check, mul_vec,
                                structure_to_json, theorem21_instance,
                                theorem21_verdict, theorem22_instance,
                                thm22_conditions, validate_colorlie)


# property table: (name, commutative, associative, unital, jordan)
PROP_TABLE = [
    ("dual2", True, True, True, True),
    ("split2(1)", True, True, True, True),
    ("mat2", False, True, True, False),   # bare identity holds, but not commutative
    ("t21(-1,-1)", True, True, False, True),
    ("t21(1,1)", True, False, False, False),
    ("t21(0,0)", True, False, False, False),
    ("sym2jordan", True, False, True, True),
]


@pytest.mark.parametrize("name,comm,assoc,unital,jordan", PROP_TABLE)
def test_algebra_props(name, comm, assoc, unital, jordan):
    rep = check_algebra_props(registry.build(name))
    assert (rep.commutative, rep.associative, rep.unital, rep.jordan) == \
        (comm, assoc, unital, jordan)


def test_mul_vec_bilinear():
    a = registry.build("dual2")        # basis (1, x), x^2 = 0
    one, x = basis_vec(2, 0), basis_vec(2, 1)
    assert mul_vec(a, x, x) == [Fraction(0), Fraction(0)]
    assert mul_vec(a, one, x) == x
    u = [Fraction(2), Fraction(3)]
    assert mul_vec(a, u, u) == [Fraction(4), Fraction(12)]


def test_theorem21_sweep():
    jordan_points = []
    for s in range(-3, 4):
        for t in range(-3, 4):
            v = theorem21_verdict(s, t)
            assert v.equivalent, (s, t)
            if v.jordan:
                jordan_points.append((s, t))
    assert jordan_points == [(-1, -1)]


def test_theorem21_instance_shape():
    a = theorem21_instance(2, 5)
    assert mul_vec(a, basis_vec(2, 0), basis_vec(2, 0)) == [0, 1]   # a^2 = b
    assert mul_vec(a, basis_vec(2, 1), basis_vec(2, 1)) == [1, 0]   # b^2 = a
    assert mul_vec(a, basis_vec(2, 0), basis_vec(2, 1)) == [2, 5]


def test_unit_validation():
    bad = AlgebraSpec(["e", "f"], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
                      unit=[0, 1])
    assert not check_algebra_props(bad).unital
    assert not check_algebra_props(registry.build("t21(1,1)")).unital


def test_inline_registry_arguments():
    dual2 = structure_to_json(registry.build("dual2"))
    for ref in ("dual2()", "dual2( )"):
        assert structure_to_json(registry.build(ref)) == dual2
    assert (structure_to_json(registry.build("t21( 1,0 )"))
            == structure_to_json(registry.build("t21", 1, 0)))
    for ref in ("t21(,1,0)", "t21(1, ,0)"):
        with pytest.raises(ValueError, match="empty argument"):
            registry.build(ref)


def test_theorem22_beta_sweep():
    for beta in (-3, -2, -1, 1, 2, 3):
        rep = coalgebra_props(theorem22_instance(beta))
        assert rep.cocommutative
        assert rep.coassociative == (beta == -1), beta
    with pytest.raises(ValueError):
        theorem22_instance(0)


def test_thm22_conditions():
    c = theorem22_instance(-1)
    assert thm22_conditions(c, [1, 0], [0, 1])
    assert not thm22_conditions(c, [1, 0], [1, 1])
    with pytest.raises(PreconditionError):
        thm22_conditions(c, [1, 1], [2, 2])
    with pytest.raises(PreconditionError):
        thm22_conditions(c, [0, 0], [0, 1])


@pytest.mark.parametrize("eps, zeta", [([1, 0, 5], [0, 1, 7]), ([1], [0]),
                                       ([1, 0], [0, 1, 0])])
def test_thm22_conditions_refuses_covectors_of_the_wrong_length(eps, zeta):
    with pytest.raises(ValueError, match="covectors must have 2 entries"):
        thm22_conditions(theorem22_instance(-1), eps, zeta)


def test_jordan_co_modes():
    c = theorem22_instance(-1)
    for mode in ("pattern3", "symmetrized", "full"):
        assert jordan_co_check(c, mode)
    dual_sym = dualize(registry.build("sym2jordan"))
    assert jordan_co_check(dual_sym, "pattern3")
    assert jordan_co_check(dual_sym, "symmetrized")
    assert not jordan_co_check(dual_sym, "full")


def test_jordan_co_requires_cocommutative():
    # eta(e) = e(x)f only: not cocommutative
    c = CoalgebraSpec(["e", "f"], [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])
    assert not coalgebra_props(c).cocommutative
    with pytest.raises(PreconditionError):
        jordan_co_check(c, "pattern3")


def test_dualize_matches_theorem22():
    got = dualize(registry.build("t21(-1,-1)"))
    want = theorem22_instance(-1)
    assert got.d == want.d            # same tables; labels may differ


def test_dualize_roundtrip():
    for name in ("dual2", "mat2", "sym2jordan", "t21(2,3)"):
        a = registry.build(name)
        back = dualize_co(dualize(a))
        assert back.c == a.c


def test_superlie_validation():
    heis = registry.build("heis3")
    rep = validate_colorlie(heis)
    assert rep.antisym and rep.jacobi
    gl = registry.build("gl11")
    rep = validate_colorlie(gl)
    assert rep.antisym and rep.jacobi


def test_superlie_antisym_failure():
    # [x,x] = x on a 1-dim even algebra violates antisymmetry
    bad = SuperLieSpec(["x"], [0], [[[1]]])
    rep = validate_colorlie(bad)
    assert not rep.antisym


def test_superlie_grading_invariant():
    # even [x,y] landing on an odd element is rejected at construction
    with pytest.raises(ValueError):
        SuperLieSpec(["x", "y"], [0, 1],
                     [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])


def test_center_contains():
    heis = registry.build("heis3")
    assert center_contains(heis, [0, 0, 1])
    rep = center_contains(heis, [1, 0, 0])
    assert not rep and rep.even and not rep.commutes and rep.witness == 1
    gl = registry.build("gl11")
    assert center_contains(gl, [1, 1, 0, 0])
    rep = center_contains(gl, [0, 0, 1, 0])
    assert not rep and not rep.even


def test_bracket_vec():
    heis = registry.build("heis3")
    x, y = basis_vec(3, 0), basis_vec(3, 1)
    assert mul_vec(heis, x, y) == [0, 0, 1]
    assert mul_vec(heis, y, x) == [0, 0, -1]


def test_group_elements():
    assert list(group_elements([2, 3])) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def _z2_theta(value_at_11):
    theta = {}
    for a in group_elements([2]):
        for b in group_elements([2]):
            theta[a, b] = value_at_11 if (a, b) == ((1,), (1,)) else Fraction(1)
    return theta


def test_colorlie_superlie_agreement():
    # theta(a,b) = (-1)^{ab} on Z2 reproduces super antisymmetry/Jacobi
    gl = registry.build("gl11")
    cl = ColorLieSpec(gl.basis, [2], [(g,) for g in gl.grading],
                      _z2_theta(Fraction(-1)), gl.b)
    rep = validate_colorlie(cl)
    assert rep.bicharacter and rep.antisym and rep.jacobi


def test_colorlie_theta_must_be_total_and_nonzero():
    gl = registry.build("gl11")
    grading = [(g,) for g in gl.grading]
    with pytest.raises(ValueError):
        ColorLieSpec(gl.basis, [2], grading, {}, gl.b)
    with pytest.raises(ValueError):
        ColorLieSpec(gl.basis, [2], grading, _z2_theta(Fraction(0)), gl.b)


def test_colorlie_trivial_theta_breaks_antisym():
    # with theta = 1 everywhere, the graded antisymmetry of gl11 fails
    gl = registry.build("gl11")
    cl = ColorLieSpec(gl.basis, [2], [(g,) for g in gl.grading],
                      _z2_theta(Fraction(1)), gl.b)
    rep = validate_colorlie(cl)
    assert rep.bicharacter and not rep.antisym
