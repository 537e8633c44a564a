"""Polarization subspace W in V^(x4) and the Jordan W-relation checks.

Dimensions and verdicts are frozen from an independent oracle run.
"""
import itertools
from fractions import Fraction

import pytest

from ybforge import registry
from _dense import vec_is_zero
from ybforge.exactla import project_onto, row_space_basis
from ybforge.structures import (PreconditionError, basis_vec, jordan_w_check,
                                mul_vec, w_subspace_basis)

FROZEN_DIMS = {
    (1, "pattern3"): 1, (1, "symmetrized"): 1, (1, "full"): 1,
    (2, "pattern3"): 8, (2, "symmetrized"): 5, (2, "full"): 14,
    (3, "pattern3"): 30, (3, "symmetrized"): 15, (3, "full"): 60,
}


@pytest.mark.parametrize("n,mode", sorted(FROZEN_DIMS))
def test_w_dims(n, mode):
    assert len(w_subspace_basis(n, mode).basis) == FROZEN_DIMS[n, mode]


def test_w_unknown_mode():
    with pytest.raises(ValueError):
        w_subspace_basis(2, "everything")


def _pattern_vector(n, x, y, pos):
    """x(x)x(x)x with y inserted at slot pos, as a flat coordinate vector."""
    vecs = [x, x, x]
    vecs.insert(pos, y)
    out = []
    for a in vecs[0]:
        for b in vecs[1]:
            for c in vecs[2]:
                for d in vecs[3]:
                    out.append(a * b * c * d)
    return out


def test_pattern3_contains_substituted_vectors():
    # W(pattern3) must contain x(x)x(x)y(x)x for every rational x, y
    n = 2
    ws = w_subspace_basis(n, "pattern3")
    basis = [list(b) for b in ws.basis]
    for xc in ((1, 0), (0, 1), (1, 1), (2, -3)):
        for yc in ((1, 0), (1, 2)):
            x = [Fraction(v) for v in xc]
            y = [Fraction(v) for v in yc]
            v = _pattern_vector(n, x, y, 2)
            assert project_onto(basis, v) == v


def test_full_contains_all_positions():
    n = 2
    basis = [list(b) for b in w_subspace_basis(n, "full").basis]
    x = [Fraction(1), Fraction(2)]
    y = [Fraction(-1), Fraction(3)]
    for pos in range(4):
        v = _pattern_vector(n, x, y, pos)
        assert project_onto(basis, v) == v


def test_symmetrized_is_position_sum_span():
    n = 2
    basis = [list(b) for b in w_subspace_basis(n, "symmetrized").basis]
    x = [Fraction(2), Fraction(1)]
    y = [Fraction(0), Fraction(1)]
    acc = [Fraction(0)] * n ** 4
    for pos in range(4):
        acc = [a + b for a, b in zip(acc, _pattern_vector(n, x, y, pos))]
    assert project_onto(basis, acc) == acc


def test_raw_generator_span_equals_basis_span():
    # basis extraction must not lose rank against the raw generator list
    n = 2
    raw = []
    for idx3 in itertools.combinations_with_replacement(range(n), 3):
        for j in range(n):
            acc = [Fraction(0)] * n ** 4
            for perm in itertools.permutations(idx3):
                slots = list(perm[:2]) + [j] + list(perm[2:])
                flat = ((slots[0] * n + slots[1]) * n + slots[2]) * n + slots[3]
                acc[flat] += 1
            raw.append(acc)
    assert len(row_space_basis(raw)) == FROZEN_DIMS[n, "pattern3"]


W_VERDICTS = [
    ("sym2jordan", "pattern3", True),
    ("sym2jordan", "symmetrized", True),
    ("sym2jordan", "full", False),
    ("t21(-1,-1)", "full", True),
    ("dual2", "full", True),
    ("split2(1)", "full", True),
]


@pytest.mark.parametrize("name,mode,want", W_VERDICTS)
def test_jordan_w_verdicts(name, mode, want):
    assert jordan_w_check(registry.build(name), mode) == want


def test_jordan_w_requires_commutative():
    with pytest.raises(PreconditionError):
        jordan_w_check(registry.build("mat2"), "pattern3")


def test_full_mode_witness_products():
    # x = E11, y = E12 + E21 in the symmetric 2x2 Jordan algebra:
    # ((yx)x)x = x^3-associated product differs from (yx)(xx)
    a = registry.build("sym2jordan")
    x = basis_vec(3, 0)
    y = basis_vec(3, 2)
    yx = mul_vec(a, y, x)
    lhs = mul_vec(a, mul_vec(a, yx, x), x)
    rhs = mul_vec(a, yx, mul_vec(a, x, x))
    assert lhs == [0, 0, Fraction(1, 8)]
    assert rhs == [0, 0, Fraction(1, 4)]
    assert not vec_is_zero([l - r for l, r in zip(lhs, rhs)])
