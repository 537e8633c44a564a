"""The one elimination routine and the one common-denominator helper of
`exactla` against the routines they replaced.

The references are test-local copies of the earlier implementations: the
Gauss-Jordan loop of `mat_inverse`, the incremental reduction of
`row_space_basis`, the Gram solve behind `project_onto`, and the
denominator loops of `mat_from_rows` and `mat_from_columns`.  Inputs are
seeded rational matrices of every shape: square and singular, wide and
tall, of any rank down to 0, with zero and duplicate rows.
"""
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ybforge.exactla import (Mat, common_den, gauss_jordan, mat_from_columns,
                             mat_from_rows, mat_inverse, project_onto,
                             row_space_basis, vec_dot)

SEEDED = settings(derandomize=True, max_examples=120, deadline=None,
                  database=None)


# ---------- test-local copies of the replaced routines ----------

def old_mat_from_rows(rows):
    r = len(rows)
    c = len(rows[0]) if r else 0
    ent = []
    for row in rows:
        if len(row) != c:
            raise ValueError("ragged rows")
        for x in row:
            ent.append(Fraction(x) if not isinstance(x, Fraction) else x)
    den = 1
    for x in ent:
        den = den * x.denominator // gcd(den, x.denominator)
    num = [x.numerator * (den // x.denominator) for x in ent]
    return Mat(r, c, num, den)


def old_mat_from_columns(vecs):
    if not vecs:
        raise ValueError("no columns")
    dim = len(vecs[0])
    den = 1
    fr = []
    for v in vecs:
        if len(v) != dim:
            raise ValueError("dim mismatch")
        fv = [Fraction(x) if not isinstance(x, Fraction) else x for x in v]
        fr.append(fv)
        for x in fv:
            den = den * x.denominator // gcd(den, x.denominator)
    num = [0] * (dim * len(vecs))
    for j, fv in enumerate(fr):
        for i, x in enumerate(fv):
            num[i * len(vecs) + j] = x.numerator * (den // x.denominator)
    return Mat(dim, len(vecs), num, den)


def old_mat_inverse(a):
    n = a.rows
    aug = [row + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a.to_rows())]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        if pv != 1:
            aug[col] = [x / pv for x in aug[col]]
        prow = aug[col]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], prow)]
    return old_mat_from_rows([row[n:] for row in aug])


def old_row_space_basis(vecs):
    if not vecs:
        return []
    dim = len(vecs[0])
    basis = []
    for v in vecs:
        if len(v) != dim:
            raise ValueError("dim mismatch")
    for v in vecs:
        row = [Fraction(x) for x in v]
        for pc, b in basis:
            if row[pc] != 0:
                f = row[pc]
                row = [x - f * y for x, y in zip(row, b)]
        lead = next((j for j, x in enumerate(row) if x != 0), None)
        if lead is None:
            continue
        lv = row[lead]
        if lv != 1:
            row = [x / lv for x in row]
        for pc, b in basis:
            if b[lead] != 0:
                f = b[lead]
                for j in range(dim):
                    b[j] -= f * row[j]
        basis.append((lead, row))
    basis.sort(key=lambda t: t[0])
    return [b for _, b in basis]


def old_solve(rows, rhs):
    n = len(rows)
    aug = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        prow = aug[col]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], prow)]
    return [aug[i][n] for i in range(n)]


def old_project_onto(basis, v):
    if not basis:
        return [Fraction(0)] * len(v)
    gram = [[vec_dot(bi, bj) for bj in basis] for bi in basis]
    rhs = [vec_dot(bi, v) for bi in basis]
    coef = old_solve(gram, rhs)
    if coef is None:
        raise ValueError("dependent basis")
    out = [Fraction(0)] * len(v)
    for c, b in zip(coef, basis):
        if c:
            for i, x in enumerate(b):
                out[i] += c * x
    return out


# ---------- seeded inputs ----------

def seeded_rows(seed, m, n, rank):
    """m rows of length n spanning a space of dimension <= rank; a third of
    the rows repeat an earlier row or are zero.  Entries are Fractions with
    a few ints and strings mixed in."""
    rng = random.Random(seed)

    def rat():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 6))

    gens = [[rat() for _ in range(n)] for _ in range(rank)]
    rows = []
    for _ in range(m):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.3 or not gens:
            rows.append([Fraction(0)] * n)
        else:
            coef = [rat() for _ in gens]
            rows.append([sum(c * g[j] for c, g in zip(coef, gens))
                         for j in range(n)])
    for row in rows:
        for j, x in enumerate(row):
            pick = rng.random()
            if pick < 0.1 and x.denominator == 1:
                row[j] = int(x)
            elif pick < 0.2:
                row[j] = str(x)
    return rows


def as_fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


shapes = st.tuples(st.integers(0, 2 ** 32), st.integers(1, 7),
                   st.integers(1, 7), st.integers(0, 7))


# ---------- properties ----------

@SEEDED
@given(shapes)
def test_mat_from_rows_and_columns_match_the_old_loops(shape):
    seed, m, n, rank = shape
    rows = seeded_rows(seed, m, n, rank)
    assert mat_from_rows(rows) == old_mat_from_rows(rows)
    assert mat_from_columns(rows) == old_mat_from_columns(rows)
    ragged = rows + [rows[0][:-1]]
    for new, old in ((mat_from_rows, old_mat_from_rows),
                     (mat_from_columns, old_mat_from_columns)):
        with pytest.raises(ValueError):
            old(ragged)
        with pytest.raises(ValueError):
            new(ragged)


@SEEDED
@given(shapes)
def test_mat_inverse_matches_the_old_loop(shape):
    seed, n, _, rank = shape
    a = mat_from_rows(seeded_rows(seed, n, n, min(rank, n)))
    inv = mat_inverse(a)
    assert inv == old_mat_inverse(a)
    if inv is not None:
        # a * inv is the identity
        rows = as_fractions(a.to_rows())
        inv_rows = inv.to_rows()
        for i in range(n):
            for j in range(n):
                assert sum(rows[i][k] * inv_rows[k][j]
                           for k in range(n)) == (i == j)


@SEEDED
@given(shapes)
def test_row_space_basis_matches_the_old_reduction(shape):
    seed, m, n, rank = shape
    rows = seeded_rows(seed, m, n, rank)
    assert row_space_basis(rows) == old_row_space_basis(rows)


@SEEDED
@given(shapes)
def test_project_onto_matches_the_old_gram_solve(shape):
    seed, m, n, rank = shape
    rows = as_fractions(seeded_rows(seed, m, n, rank))
    v = as_fractions(seeded_rows(seed + 1, 1, n, 1))[0]
    try:
        want = old_project_onto(rows, v)
    except ValueError:
        with pytest.raises(ValueError, match="dependent basis"):
            project_onto(rows, v)
    else:
        assert project_onto(rows, v) == want


def test_project_onto_rejects_a_dependent_basis():
    for basis in ([[1, 2, 0], [2, 4, 0]], [[0, 0, 0]],
                  [[1, 0, 1], [0, 1, 1], [1, 1, 2]]):
        basis = as_fractions(basis)
        with pytest.raises(ValueError, match="dependent basis"):
            project_onto(basis, [Fraction(1)] * 3)
    got = project_onto(as_fractions([[1, 1, 0]]), as_fractions([[1, 0, 5]])[0])
    assert got == [Fraction(1, 2), Fraction(1, 2), 0]


def test_gauss_jordan_pivots_and_early_exit():
    rows = as_fractions([[0, 2, 4, 1], [0, 1, 2, 0], [0, 0, 0, 3]])
    assert gauss_jordan(rows, 3) == [1]
    assert rows[0] == [0, 1, 2, Fraction(1, 2)]
    # full_rank stops at the first column without a pivot: column 0
    rows = as_fractions([[0, 2, 4, 1], [0, 1, 2, 0], [0, 0, 0, 3]])
    assert gauss_jordan(rows, 3, full_rank=True) is None
    rows = as_fractions([[2, 0, 1], [0, 3, 1]])
    assert gauss_jordan(rows, 2, full_rank=True) == [0, 1]
    assert rows == [[1, 0, Fraction(1, 2)], [0, 1, Fraction(1, 3)]]


def test_common_den():
    assert common_den([]) == ([], 1)
    assert common_den([Fraction(1, 2), 3, "-5/6", Fraction(0)]) == (
        [3, 18, -5, 0], 6)


def test_seeded_inputs_reach_every_case():
    # the properties above see both outcomes of each decision
    inverses, projections = set(), set()
    for seed in range(40):
        n = 1 + seed % 5
        a = mat_from_rows(seeded_rows(seed, n, n, n))
        inverses.add(mat_inverse(a) is None)
        rows = as_fractions(seeded_rows(seed, n, 6, n))
        try:
            project_onto(rows, [Fraction(1)] * 6)
            projections.add(True)
        except ValueError:
            projections.add(False)
    assert inverses == {True, False}
    assert projections == {True, False}
