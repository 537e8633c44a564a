"""The integer kernels: hand-checked products, and exact results for
numerators past 64 bits."""
import random
from fractions import Fraction

from ybforge import _kernels
from _dense import mat_identity
from ybforge.exactla import mat_from_rows, mat_mul, kron


def test_pure_matmul_reference():
    # 2x2 hand case
    got = _kernels.matmul_pure([1, 2, 3, 4], [5, 6, 7, 8], 2, 2, 2)
    assert got == [19, 22, 43, 50]


def test_pure_kron_reference():
    got = _kernels.kron_pure([1, 2], [0, 3], 1, 2, 1, 2)
    assert got == [0, 3, 0, 6]


def test_overflow_boundary_routes_to_pure():
    # products of numerators past 2^63 stay exact
    big = 2 ** 31
    a = mat_from_rows([[big, big], [1, 0]])
    b = mat_from_rows([[big, 1], [big, 0]])
    prod = mat_mul(a, b)
    assert prod.to_rows()[0][0] == Fraction(2 * big * big)
    assert prod.to_rows()[1] == [Fraction(big), Fraction(1)]


def test_fraction_entries_exact_through_both_paths():
    rng = random.Random(103)
    rows_a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7))
               for _ in range(6)] for _ in range(6)]
    rows_b = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7))
               for _ in range(6)] for _ in range(6)]
    a, b = mat_from_rows(rows_a), mat_from_rows(rows_b)
    # reference values computed with plain Fractions
    want = [[sum(rows_a[i][k] * rows_b[k][j] for k in range(6))
             for j in range(6)] for i in range(6)]
    assert mat_mul(a, b).to_rows() == want
    assert kron(a, b).entry(7, 9) == rows_a[1][1] * rows_b[1][3]


def test_identity_products():
    i = mat_identity(9)
    assert mat_mul(i, i) == i
