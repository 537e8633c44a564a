"""The Jordan W relations and associativity from one table of associators.

`structures._Associators` holds the basis associators (e_t e_c) e_d -
e_t (e_c e_d), each computed on its first read; `_associative` and every W
mode of `_g_vanishes_on_w` read them and multiply nothing else.  Here the table, `check_algebra_props`,
the three W modes and the coalgebra duals agree with the dense `Fraction`
references of `tests/_dense.py` on seeded random algebras of dimension at
most 4: random tables (non-commutative, non-unital, symmetrised), single
edits of associative ones, and associative algebras in a random basis.
When every associator is zero, G is zero and no W generator is evaluated;
a check computes each associator at most once.
"""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _dense as dense
from ybforge import registry, structures
from ybforge.exactla import mat_from_rows, mat_inverse
from ybforge.structures import (AlgebraSpec, _Associators, _associative,
                                _g_vanishes_on_w,
                                check_algebra_props, coalgebra_props, dualize,
                                jordan_co_check, jordan_w_check)

SEEDED = settings(derandomize=True, max_examples=60, deadline=None,
                  database=None)
MODES = ("pattern3", "symmetrized", "full")
rats = st.one_of(st.just(Fraction(0)),
                 st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


def table(n, product):
    """c[i][j][k] of the basis products product(i, j) = {k: value}."""
    return [[[product(i, j).get(k, 0) for k in range(n)] for j in range(n)]
            for i in range(n)]


def matrices(m):
    """M_m, basis E_ab row-major: E_ab E_cd = [b = c] E_ad."""
    return AlgebraSpec(["E%d%d" % divmod(i, m) for i in range(m * m)],
                       table(m * m, lambda i, j: {i // m * m + j % m: 1}
                             if i % m == j // m else {}),
                       [int(i // m == i % m) for i in range(m * m)])


# Associative algebras of dim <= 4 with their units (or None): Q^k, the
# truncated polynomials Q[x]/(x^k), x Q[x]/(x^4) (no unit), the null
# algebra, 2x2 upper triangular matrices and M_2 (not commutative).
ASSOCIATIVE = [
    (lambda k: (table(k, lambda i, j: {i: 1} if i == j else {}), [1] * k)),
    (lambda k: (table(k, lambda i, j: {i + j: 1} if i + j < k else {}),
                [1] + [0] * (k - 1))),
    (lambda k: (table(3, lambda i, j: {i + j + 1: 1} if i + j < 2 else {}),
                None)),
    (lambda k: (table(k, lambda i, j: {}), None)),
    (lambda k: (table(3, lambda i, j: {(0, 0): {0: 1}, (0, 1): {1: 1},
                                       (1, 2): {1: 1}, (2, 2): {2: 1}}
                      .get((i, j), {})), [1, 0, 1])),
    (lambda k: (matrices(2).c, matrices(2).unit)),
]


def rebased(c, unit, p):
    """The algebra of c in the basis f_i = sum_a p[i][a] e_a."""
    n = len(p)
    q = mat_inverse(mat_from_rows(p)).to_rows()
    r = range(n)
    ee = [[[sum(c[a][b][m] * q[m][k] for m in r) for k in r] for b in r]
          for a in r]
    c2 = [[[sum(p[i][a] * p[j][b] * ee[a][b][k] for a in r for b in r
                if p[i][a] and p[j][b]) for k in r] for j in r] for i in r]
    if unit is not None:
        unit = [sum(unit[m] * q[m][k] for m in r) for k in r]
    return AlgebraSpec(["f%d" % i for i in r], c2, unit)


@st.composite
def algebras(draw):
    """A random table (zero rows, optionally symmetrised, perhaps a random
    unit), an associative algebra in a random basis (unitriangular times an
    invertible diagonal), or one with a single constant edited."""
    kind = draw(st.sampled_from(["random", "associative", "edited"]))
    if kind == "random":
        n = draw(st.integers(1, 4))
        c = [[draw(st.lists(rats, min_size=n, max_size=n))
              if draw(st.integers(0, 2)) else [0] * n for _ in range(n)]
             for _ in range(n)]
        if draw(st.booleans()):
            for i, j in itertools.combinations(range(n), 2):
                c[j][i] = c[i][j]
        unit = draw(st.none() | st.lists(rats, min_size=n, max_size=n))
        return AlgebraSpec(["e%d" % i for i in range(n)], c, unit)
    c, unit = draw(st.sampled_from(ASSOCIATIVE))(draw(st.integers(1, 4)))
    n = len(c)
    if kind == "edited":
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        c = [[list(row) for row in plane] for plane in c]
        c[i][j][k] += draw(st.sampled_from([1, -1, Fraction(1, 2)]))
        if draw(st.booleans()):
            c[j][i][k] = c[i][j][k]
        return AlgebraSpec(["e%d" % i for i in range(n)], c, unit)
    low = [[draw(st.integers(-2, 2)) if b < a else int(a == b)
            for b in range(n)] for a in range(n)]
    scale = [draw(st.sampled_from([1, -1, 2, Fraction(1, 2)])) for _ in range(n)]
    p = [[low[a][b] * scale[b] for b in range(n)] for a in range(n)]
    return rebased(c, unit, p)


def dense_associator(A, t, c, d):
    n = A.n
    e = [dense.basis_vec(n, i) for i in range(n)]
    lhs = dense.mul_vec(A, A.c[t][c], e[d])
    rhs = dense.mul_vec(A, e[t], A.c[c][d])
    return [x - y for x, y in zip(lhs, rhs)]


def test_associator_table_matches_the_dense_products():
    seen = set()

    @SEEDED
    @given(algebras())
    def check(A):
        table = _Associators(A)
        assoc = table.vanish()
        assert assoc == _associative(A) == dense.associative(A)
        for tcd in itertools.product(range(A.n), repeat=3):
            want = dense_associator(A, *tcd)
            assert [Fraction(table[tcd].get(k, 0), A.den ** 2)
                    for k in range(A.n)] == want
            assert bool(table[tcd]) == any(want)
        seen.add(assoc)

    check()
    assert seen == {True, False}


def test_verdicts_match_the_dense_references():
    seen = set()

    @SEEDED
    @given(algebras())
    def check(A):
        comm, assoc = dense.commutative(A), dense.associative(A)
        want = [dense.g_vanishes_on_w(A, mode) for mode in MODES]
        assert tuple(check_algebra_props(A)) == (
            comm, assoc, dense.unit_valid(A), comm and want[0])
        assert [_g_vanishes_on_w(A, mode) for mode in MODES] == want
        if comm:
            assert [jordan_w_check(A, mode) for mode in MODES] == want
        C = dualize(A)
        assert tuple(coalgebra_props(C)) == (comm, assoc)
        if comm:
            assert [jordan_co_check(C, mode) for mode in MODES] == [
                dense.coalgebra_verdicts(C, mode)[2] for mode in MODES]
        seen.update([("commutative", comm), ("associative", assoc)]
                    + list(zip(MODES, want)))

    check()
    for name in ("commutative", "associative") + MODES:
        assert {(name, True), (name, False)} <= seen, name


Q6 = AlgebraSpec(["e%d" % i for i in range(6)],
                 table(6, lambda i, j: {i: 1} if i == j else {}), [1] * 6)
MAT3 = matrices(3)


@pytest.fixture
def no_generators(monkeypatch):
    def refuse(*args):
        raise AssertionError("a W generator was evaluated")
    monkeypatch.setattr(structures, "_w_pair_sums", refuse)
    monkeypatch.setattr(structures, "_w_generators", refuse)


def test_an_empty_table_evaluates_no_generator(no_generators):
    assert check_algebra_props(Q6) == (True, True, True, True)
    assert check_algebra_props(MAT3) == (False, True, True, False)
    for mode in MODES:
        assert jordan_w_check(Q6, mode)
        assert jordan_co_check(dualize(Q6), mode)
        assert _g_vanishes_on_w(MAT3, mode)


def test_an_unknown_mode_is_refused_on_an_associative_algebra():
    with pytest.raises(ValueError, match="unknown mode"):
        _g_vanishes_on_w(Q6, "nosuch")


@pytest.mark.parametrize("A", [Q6, MAT3, rebased(*ASSOCIATIVE[1](4), [
    [1, 0, 0, 0], [1, 1, 0, 0], [0, 2, 1, 0], [1, 0, -1, 1]]),
    registry.build("sym2jordan")],
    ids=["Q6", "mat3", "Q[x]/(x^4)-rebased", "sym2jordan"])
def test_props_compute_each_associator_at_most_once(monkeypatch, A):
    calls = []
    mul = structures._mul

    def counting(*args):
        calls.append(1)
        return mul(*args)

    monkeypatch.setattr(structures, "_mul", counting)
    rep = check_algebra_props(A)
    # the unit check takes at most two products per basis element
    assert len(calls) <= 2 * A.n ** 3 + 2 * A.n
    assert rep.unital and (rep.associative or rep.jordan)
