"""Verdicts of the parameter families by exact coefficient expansion against
the grid loops they replaced.

The reference is a test-local copy of the earlier implementation: the
operator is built from the family's formula at every grid point and
`yb_vanishes` runs at every point of the 7-point nonzero t-grid (one
parameter) or the 4-point color grid (two colors), in product order, up to
the first failure.  Inputs are the unital registry algebras (dual2, mat2,
sym2jordan, split2(m)) and copies of them in a random rational basis, with
seeded q and (p, q) values.
"""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ybforge import constructions, registry
from ybforge.constructions import (Family, _formula_op, colored_qybe_verify,
                                   oneparam_verify, r_colored,
                                   r_super_colored, s_oneparam)
from _dense import mat_add, mat_scale, twist
from ybforge.exactla import Mat
from ybforge.paramgrid import GridResult, default_grid
from ybforge.registry import build
from ybforge.structures import AlgebraSpec
from ybforge.ybcore import LinOp2, yb_vanishes, yb_vanishes_expanded

TGRID = default_grid(7, nonzero=True)
CGRID = default_grid(4)
SCALARS = [Fraction(x) for x in (-1, 1, 2, -2, 3)] + [Fraction(1, 2),
                                                      Fraction(-3, 2)]
SEEDED = settings(derandomize=True, max_examples=25, deadline=None,
                  database=None)
T_NAMES, C_NAMES = ("t1", "t2", "t3"), ("u", "v", "w")


def result(description, names, verdict, certified, witness, size, bound):
    """The GridResult a verifier must return, with every variable of names
    on a grid of `size` points under degree bound `bound`."""
    return GridResult(description, verdict, certified, witness,
                      {name: (size, bound) for name in names})


def grid_oneparam(A, q, tgrid):
    """(verdict, witness) of the one-parameter YBE over tgrid^3."""
    unit, q = A.unit, Fraction(q)
    tgrid = [Fraction(t) for t in tgrid]    # t1 / t2 stays exact
    ops = {}

    def op(t):
        if t not in ops:
            ops[t] = _formula_op(A, unit, q * (t - 1), t - 1, t - q, 0)
        return ops[t]

    for t1, t2, t3 in itertools.product(tgrid, repeat=3):
        if not yb_vanishes(op(t1 / t2), op(t1 / t3), op(t2 / t3)):
            return False, {"t1": t1, "t2": t2, "t3": t3}
    return True, None


def grid_colored(A, p, q, grid):
    """(verdict, witness) of the two-color QYBE over grid^3."""
    unit, p, q = A.unit, Fraction(p), Fraction(q)
    ops = {}

    def op(u, v):
        if (u, v) not in ops:
            ops[u, v] = _formula_op(A, unit, q * (u - v), p * (u - v),
                                    p * u - q * v, 0)
        return ops[u, v]

    for u, v, w in itertools.product(grid, repeat=3):
        if not yb_vanishes(op(u, v), op(u, w), op(v, w)):
            return False, {"u": u, "v": v, "w": w}
    return True, None


def _invert(p):
    n = len(p)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(n)]
            for i, r in enumerate(p)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [r[n:] for r in rows]


def change_basis(A, p):
    """A in the basis f_a = sum_i p[i][a] e_i, unit included."""
    n = A.n
    q = _invert(p)
    cols = [[p[i][a] for i in range(n)] for a in range(n)]

    def mul(u, v):
        out = [Fraction(0)] * n
        for i, j in itertools.product(range(n), repeat=2):
            if u[i] and v[j]:
                for k in range(n):
                    out[k] += u[i] * v[j] * A.c[i][j][k]
        return out

    def coords(w):
        return [sum(q[k][i] * w[i] for i in range(n)) for k in range(n)]

    table = [[coords(mul(cols[a], cols[b])) for b in range(n)]
             for a in range(n)]
    return AlgebraSpec(["f%d" % i for i in range(n)], table,
                       unit=coords(A.unit))


BASES = [build("dual2"), build("mat2"), build("sym2jordan"),
         build("split2", 2), build("split2", Fraction(-1, 3))]


# A basis change is a diagonal scaling plus at most two off-diagonal entries:
# a dense one makes the reference grid over mat2 take seconds per example.
VALUES = [Fraction(x) for x in (1, -1, 2)] + [Fraction(1, 2)]


@st.composite
def unital_algebras(draw):
    A = draw(st.sampled_from(BASES))
    if not draw(st.booleans()):
        return A
    n = A.n
    p = [[draw(st.sampled_from(VALUES)) if i == j else Fraction(0)
          for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(1, 2))):
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n)
                                     if i != j]))
        p[i][j] = draw(st.sampled_from(VALUES))
    if _invert(p) is None:
        return A
    return change_basis(A, p)


def test_oneparam_matches_the_grid():
    seen = set()

    @SEEDED
    @given(unital_algebras(), st.sampled_from(SCALARS))
    def check(A, q):
        res = oneparam_verify(A, q, TGRID)
        verdict, witness = grid_oneparam(A, q, TGRID)
        assert res == result("one-parameter YBE at q=%s" % q, T_NAMES,
                             verdict, verdict, witness, 7, 6)
        seen.add(verdict)

    check()
    assert seen == {True, False}


def test_colored_matches_the_grid():
    seen = set()

    @SEEDED
    @given(unital_algebras(), st.sampled_from(SCALARS),
           st.sampled_from(SCALARS))
    def check(A, p, q):
        res = colored_qybe_verify(r_colored(A, p, q), CGRID)
        verdict, witness = grid_colored(A, p, q, CGRID)
        assert res == result("colored QYBE for colored family", C_NAMES,
                             verdict, verdict, witness, 4, 3)
        seen.add(verdict)

    check()
    assert seen == {True, False}


def test_family_operators_match_the_formula():
    A = change_basis(build("sym2jordan"),
                     [[Fraction(x) for x in row]
                      for row in ([1, 2, 0], [0, 1, -1], [1, 0, 1])])
    q = Fraction(-3, 2)
    fam = s_oneparam(A, q)
    for t in (Fraction(1, 3), Fraction(2), Fraction(-5, 7)):
        assert fam(t) == _formula_op(A, A.unit, q * (t - 1), t - 1, t - q, 0)
    p = Fraction(2, 5)
    col = r_colored(A, p, q)
    for u, v in ((Fraction(0), Fraction(1, 2)), (Fraction(-3), Fraction(4))):
        assert col.evaluator(u, v) == _formula_op(
            A, A.unit, q * (u - v), p * (u - v), p * u - q * v, 0)


def test_sym2jordan_passes_at_q_minus_one():
    res = oneparam_verify(build("sym2jordan"), -1, TGRID)
    assert res.verdict and res.certified and res.witness is None
    assert grid_oneparam(build("sym2jordan"), -1, TGRID) == (True, None)


def test_pass_evaluates_no_grid_point(monkeypatch):
    def evaluated(*_factors):
        raise AssertionError("a grid point was evaluated")

    monkeypatch.setattr(constructions, "yb_vanishes", evaluated)
    mat2 = build("mat2")
    assert oneparam_verify(mat2, 2, TGRID).certified
    assert colored_qybe_verify(r_colored(mat2, 2, 3), CGRID).certified


def _oneparam_pieces(P, Q):
    # S12(x), S13(xy), S23(y) with S(t) = t P + Q, monomials in (x, y)
    return ([((1, 0), P), ((0, 0), Q)], [((1, 1), P), ((0, 0), Q)],
            [((0, 1), P), ((0, 0), Q)])


@pytest.mark.parametrize("name", ["dual2", "mat2"])
def test_dropped_piece_is_caught(name):
    A = build(name)
    P, Q = s_oneparam(A, 2).coefficients
    assert yb_vanishes_expanded(*_oneparam_pieces(P, Q))
    r, s, t = _oneparam_pieces(P, Q)
    # Q removed from S13 only: S13(xy) becomes xy P
    assert not yb_vanishes_expanded(r, s[:1], t)
    fam = s_oneparam(A, 2)
    assert any(not yb_vanishes(fam(t1 / t2), _scaled(P, t1 / t3), fam(t2 / t3))
               for t1, t2, t3 in itertools.product(TGRID, repeat=3))


def _scaled(op, x):
    return constructions._combine((op,), (x,))


def test_dropped_term_first_failure():
    # criterion 5's mutant: the 1(x)ab term dropped from S(t), so that
    # S(t) = t P' + Q' with P' = q ab(x)1 - b(x)a and Q' = -q ab(x)1 + q b(x)a
    A, q = build("dual2"), Fraction(2)
    P, Q = constructions._common_den((_formula_op(A, A.unit, q, 0, 1, 0),
                                      _formula_op(A, A.unit, -q, 0, -q, 0)))
    assert not yb_vanishes_expanded(*_oneparam_pieces(P, Q))

    def op(t):
        return constructions._combine((P, Q), (t, 1))

    first = next((t1, t2, t3) for t1, t2, t3 in itertools.product(TGRID, repeat=3)
                 if not yb_vanishes(op(t1 / t2), op(t1 / t3), op(t2 / t3)))
    assert first == (1, 2, 1)


def test_undersized_grid_fails_without_witness():
    # at t = 1 (q = 1) and at u = v = 0 every factor is the zero operator,
    # so the one-point grid passes while the identity fails
    sym = build("sym2jordan")
    res = oneparam_verify(sym, 1, [1])
    assert grid_oneparam(sym, 1, [1]) == (True, None)
    assert res == result("one-parameter YBE at q=1", T_NAMES,
                         False, False, None, 1, 6)
    res = colored_qybe_verify(r_colored(sym, 2, 3), [0])
    assert grid_colored(sym, 2, 3, [0]) == (True, None)
    assert res == result("colored QYBE for colored family", C_NAMES,
                         False, False, None, 1, 3)


def test_undersized_grid_passes_uncertified():
    mat2 = build("mat2")
    assert oneparam_verify(mat2, 2, default_grid(6, nonzero=True)) == result(
        "one-parameter YBE at q=2", T_NAMES, True, False, None, 6, 6)
    assert colored_qybe_verify(r_colored(mat2, 2, 3), default_grid(3)) == result(
        "colored QYBE for colored family", C_NAMES, True, False, None, 3, 3)


def test_color_set_subset_is_not_certified():
    # on gl11 these tables fail only at points that use color 2
    fam = r_super_colored(build("gl11"), [1, 1, 0, 0], {0: 1, 1: 2, 2: 3},
                          {0: 1, 1: 2, 2: 4}, (0, 1, 2))
    assert colored_qybe_verify(fam, [0, 1]) == result(
        "colored QYBE for superColored family", C_NAMES,
        True, False, None, 2, 2)
    assert colored_qybe_verify(fam, [0, 1, 2]) == result(
        "colored QYBE for superColored family", C_NAMES,
        False, False, {"u": 0, "v": 2, "w": 0}, 3, 2)


def test_family_without_coefficients_is_decided_on_the_grid():
    # criterion 4's corruption: the sign of the swap term flipped, given as
    # a bare evaluator, so no expansion is possible
    p, q = Fraction(2), Fraction(3)
    base = r_colored(build("dual2"), p, q)

    def corrupted(u, v):
        bump = mat_scale(twist(2).mat, 2 * (p * u - q * v))
        return LinOp2(2, mat_add(base(u, v).mat, bump))

    fam = Family("colored", 2, base.params, corrupted)
    assert colored_qybe_verify(fam, CGRID) == result(
        "colored QYBE for colored family", C_NAMES,
        False, False, {"u": 0, "v": 1, "w": 2}, 4, 3)


def test_builders_return_families():
    A, L = build("sym2jordan"), build("gl11")
    cases = [(r_colored(A, 2, 3), (Fraction(1, 2), Fraction(-1))),
             (s_oneparam(A, 2), (Fraction(3, 4),)),
             (r_super_colored(L, [1, 1, 0, 0], {0: 1, 1: 2}, {0: 1, 1: 2},
                              (0, 1)), (Fraction(1), Fraction(0)))]
    for fam, point in cases:
        assert type(fam) is Family
        assert fam(*point) == fam.evaluator(*point)


def test_pieces_of_a_factor_must_share_a_denominator():
    P, Q = s_oneparam(build("dual2"), 2).coefficients
    # the same operator as Q, written over three times its denominator
    q3 = LinOp2(Q.n, Mat(Q.mat.rows, Q.mat.cols, [3 * x for x in Q.mat.num],
                         3 * Q.mat.den, _reduced=True))
    r, s, t = _oneparam_pieces(P, Q)
    with pytest.raises(ValueError):
        yb_vanishes_expanded(r, [s[0], ((0, 0), q3)], t)


def grid_super_colored(L, z, atab, btab, colors):
    """(verdict, witness) of the super-colored QYBE over colors^3, with a
    fresh operator built at every factor of every point."""
    def op(u):
        return _formula_op(L, z, Fraction(atab[u]), 0, 0, -Fraction(btab[u]),
                           L.grading)

    for u, v, w in itertools.product(colors, repeat=3):
        if not yb_vanishes(op(u), op(u), op(v)):
            return False, {"u": u, "v": v, "w": w}
    return True, None


@SEEDED
@given(st.sampled_from(["gl11", "heis3"]), st.integers(1, 5),
       st.lists(st.sampled_from([1, 2, -1, 3]), min_size=10, max_size=10))
def test_super_colored_matches_the_full_color_loop(name, size, values):
    L = build(name)
    z = [Fraction(v) for v in registry.DEFAULT_Z[name]]
    colors = [Fraction(c) for c in range(size)]
    atab = dict(zip(colors, values[:5]))
    btab = dict(zip(colors, values[5:]))
    verdict, witness = grid_super_colored(L, z, atab, btab, colors)
    res = colored_qybe_verify(r_super_colored(L, z, atab, btab, colors), colors)
    assert (res.verdict, res.witness) == (verdict, witness)


def test_super_colored_pass_checks_each_operator_triple_once(monkeypatch):
    # 6 colours all mapped to 1: the identity holds, and the operator depends
    # on the first colour only, so 36 of the 216 points are distinct triples
    calls = []

    def counted(*ops):
        calls.append(ops)
        return yb_vanishes(*ops)

    monkeypatch.setattr(constructions, "yb_vanishes", counted)
    colors = list(range(6))
    table = {c: 1 for c in colors}
    fam = r_super_colored(build("heis3"), registry.DEFAULT_Z["heis3"], table,
                          table, colors)
    assert colored_qybe_verify(fam, colors).verdict
    assert len(calls) == 36
