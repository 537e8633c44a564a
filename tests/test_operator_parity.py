"""The one operator template and the one bracket validator agree with the
separate loops they replaced.

Each `_old_*` function below is a verbatim copy of a loop that used to build
an operator family or validate a Z2-graded bracket on its own.  The families
built by `constructions._formula_op` and the verdicts of `validate_colorlie`
must equal theirs on the registry structures and on random structures.
"""
import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ybforge import registry
from ybforge.constructions import (_adjoin_unit, _common_den, phi_super,
                                   r_algebra, r_colored, r_super_colored,
                                   s_oneparam, wxz_thm38)
from _dense import vec_is_zero
from ybforge.exactla import mat_from_columns
from ybforge.structures import (AlgebraSpec, SuperLieSpec, basis_vec,
                                validate_colorlie)
from ybforge.ybcore import LinOp2

PARITY = settings(derandomize=True, max_examples=40, deadline=None)

UNITAL = ["dual2", "split2(2)", "split2(-1/3)", "mat2", "sym2jordan"]
GRADED = ["heis3", "gl11"]


# ---------- the replaced loops ----------

def _old_formula_op(A, unit, c_ab1, c_1ab, c_swap, c_diag):
    n = A.n
    cols = []
    for i in range(n):
        for j in range(n):
            col = [Fraction(0)] * n ** 2
            if c_ab1 or c_1ab:
                ab = A.c[i][j]
                for k in range(n):
                    if ab[k]:
                        for l in range(n):
                            if unit[l]:
                                prod = ab[k] * unit[l]
                                if c_ab1:
                                    col[k * n + l] += c_ab1 * prod
                                if c_1ab:
                                    col[l * n + k] += c_1ab * prod
            if c_swap:
                col[j * n + i] -= c_swap
            if c_diag:
                col[i * n + j] -= c_diag
            cols.append(col)
    return LinOp2(n, mat_from_columns(cols))


def _graded_sign(L, i, j):
    return -1 if L.grading[i] and L.grading[j] else 1


def _old_phi(L, z, alpha):
    n = L.n
    cols_op, cols_inv = [], []
    for i in range(n):
        for j in range(n):
            br = L.b[i][j]
            sign = _graded_sign(L, i, j)
            col_op = [Fraction(0)] * n ** 2
            col_inv = [Fraction(0)] * n ** 2
            if alpha:
                for k in range(n):
                    if br[k]:
                        for l in range(n):
                            if z[l]:
                                col_op[k * n + l] += alpha * br[k] * z[l]
                                col_inv[l * n + k] += alpha * br[k] * z[l]
            col_op[j * n + i] += sign
            col_inv[j * n + i] += sign
            cols_op.append(col_op)
            cols_inv.append(col_inv)
    return (LinOp2(n, mat_from_columns(cols_op)),
            LinOp2(n, mat_from_columns(cols_inv)))


def _old_super_colored(L, z, au, bu):
    n = L.n
    cols = []
    for i in range(n):
        for j in range(n):
            br = L.b[i][j]
            col = [Fraction(0)] * n ** 2
            if au:
                for k in range(n):
                    if br[k]:
                        for l in range(n):
                            if z[l]:
                                col[k * n + l] += au * br[k] * z[l]
            if bu:
                col[i * n + j] += bu * _graded_sign(L, i, j)
            cols.append(col)
    return LinOp2(n, mat_from_columns(cols))


def _old_bracket_vec(L, u, v):
    out = [Fraction(0)] * L.n
    for i in range(L.n):
        if u[i]:
            bi = L.b[i]
            for j in range(L.n):
                if v[j]:
                    uv = u[i] * v[j]
                    row = bi[j]
                    for k in range(L.n):
                        if row[k]:
                            out[k] += uv * row[k]
    return out


def _old_validate_superlie(L):
    n = L.n
    g = L.grading

    def sgn(i, j):
        return -1 if g[i] and g[j] else 1

    antisym = True
    for i in range(n):
        for j in range(n):
            lhs = L.b[i][j]
            rhs = [-sgn(i, j) * x for x in L.b[j][i]]
            if lhs != rhs:
                antisym = False
    jacobi = True
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t1 = _old_bracket_vec(L, basis_vec(n, i), L.b[j][k])
                t2 = _old_bracket_vec(L, basis_vec(n, j), L.b[k][i])
                t3 = _old_bracket_vec(L, basis_vec(n, k), L.b[i][j])
                acc = [sgn(k, i) * x + sgn(i, j) * y + sgn(j, k) * z
                       for x, y, z in zip(t1, t2, t3)]
                if not vec_is_zero(acc):
                    jacobi = False
    return antisym, jacobi


# ---------- strategies ----------

rats = st.one_of(st.just(Fraction(0)),
                 st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))
nonzero_rats = rats.filter(bool)


@st.composite
def unital_algebras(draw):
    """A registry algebra, or a random algebra of dim 1-3 with a unit adjoined."""
    name = draw(st.sampled_from(UNITAL + [None]))
    if name is not None:
        return registry.build(name)
    m = draw(st.integers(1, 3))
    c = [[[draw(rats) for _ in range(m)] for _ in range(m)] for _ in range(m)]
    return _adjoin_unit(AlgebraSpec(["e%d" % i for i in range(m)], c))


@st.composite
def graded_brackets(draw, central=False, antisymmetric=False):
    """A random Z2-graded bracket of dim 2-4.  With central=True, e_0 is even
    and brackets to zero from both sides; with antisymmetric=True,
    [e_j,e_i] = -(-1)^{|i||j|} [e_i,e_j]."""
    n = draw(st.integers(2, 4))
    grading = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if central:
        grading[0] = 0
    b = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        if (antisymmetric and j < i) or (central and 0 in (i, j)):
            continue
        par = (grading[i] + grading[j]) % 2
        b[i][j] = [draw(rats) if grading[k] == par else Fraction(0)
                   for k in range(n)]
        sign = -1 if grading[i] and grading[j] else 1
        if antisymmetric and i == j and sign == 1:
            b[i][i] = [Fraction(0)] * n
        elif antisymmetric:
            b[j][i] = [-sign * x for x in b[i][j]]
    return SuperLieSpec(["e%d" % i for i in range(n)], grading, b)


@st.composite
def lie_with_center(draw):
    """(L, z): heis3 or gl11 with its default central element, or a random
    antisymmetric bracket with z a nonzero multiple of its central e_0."""
    name = draw(st.sampled_from(GRADED + [None]))
    if name is not None:
        return registry.build(name), registry.DEFAULT_Z[name]
    L = draw(graded_brackets(central=True, antisymmetric=True))
    return L, [draw(nonzero_rats)] + [Fraction(0)] * (L.n - 1)


# ---------- algebra families ----------

@PARITY
@given(unital_algebras(), rats, rats, rats)
def test_r_algebra_matches_the_old_loop(A, alpha, beta, gamma):
    assert r_algebra(A, alpha, beta, gamma) == _old_formula_op(
        A, A.unit, alpha, beta, Fraction(0), gamma)


@PARITY
@given(unital_algebras(), rats)
def test_s_oneparam_coefficients_match_the_old_loop(A, q):
    one = Fraction(1)
    want = _common_den((_old_formula_op(A, A.unit, q, one, one, Fraction(0)),
                        _old_formula_op(A, A.unit, -q, -one, -q, Fraction(0))))
    assert s_oneparam(A, q).coefficients == want


@PARITY
@given(unital_algebras(), rats, rats)
def test_r_colored_coefficients_match_the_old_loop(A, p, q):
    want = _common_den((_old_formula_op(A, A.unit, q, p, p, Fraction(0)),
                        _old_formula_op(A, A.unit, -q, -p, -q, Fraction(0))))
    assert r_colored(A, p, q).coefficients == want


@PARITY
@given(unital_algebras(), rats, rats)
def test_wxz_thm38_matches_the_old_loop(A, lam, mu):
    one, zero = Fraction(1), Fraction(0)
    want = (_old_formula_op(A, A.unit, one, lam, one, zero),
            _old_formula_op(A, A.unit, one, one, one, zero),
            _old_formula_op(A, A.unit, mu, one, one, zero))
    assert wxz_thm38(A, lam, mu) == want


# ---------- graded bracket families ----------

@PARITY
@given(lie_with_center(), rats)
def test_phi_super_matches_the_old_loop(lie_z, alpha):
    L, z = lie_z
    pair = phi_super(L, z, alpha)
    assert (pair.op, pair.inverse) == _old_phi(L, z, alpha)


@PARITY
@given(lie_with_center(), st.lists(rats, min_size=3, max_size=3),
       st.lists(rats, min_size=3, max_size=3))
def test_r_super_colored_matches_the_old_loop(lie_z, alphas, betas):
    L, z = lie_z
    colors = [Fraction(c) for c in range(3)]
    fam = r_super_colored(L, z, dict(zip(colors, alphas)),
                          dict(zip(colors, betas)), colors)
    for u, v in itertools.product(colors, repeat=2):
        assert fam.evaluator(u, v) == _old_super_colored(
            L, z, alphas[int(u)], betas[int(u)])


# ---------- bracket validation ----------

def _verdicts(L):
    rep = validate_colorlie(L)
    assert rep.bicharacter
    return rep.antisym, rep.jacobi


@PARITY
@given(st.one_of(graded_brackets(), graded_brackets(antisymmetric=True)))
def test_validate_colorlie_matches_the_old_superlie_loop(L):
    assert _verdicts(L) == _old_validate_superlie(L)


def test_validate_parity_covers_both_verdicts():
    # (antisymmetric, jacobi) = (T, T), (F, F), (F, T) and (T, F)
    cases = [registry.build("heis3"), registry.build("gl11"),
             SuperLieSpec(["x"], [0], [[[1]]]),
             # [x,y] = [y,x] = z with z central: every Jacobi term is zero
             SuperLieSpec(["x", "y", "z"], [0, 0, 0],
                          [[[0, 0, 0], [0, 0, 1], [0, 0, 0]],
                           [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
                           [[0, 0, 0], [0, 0, 0], [0, 0, 0]]])]
    b = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    b[0][1] = [0, 0, 1]      # [x,y] = z, [y,z] = x, [x,z] = z
    b[1][0] = [0, 0, -1]
    b[1][2] = [1, 0, 0]
    b[2][1] = [-1, 0, 0]
    b[0][2] = [0, 0, 1]
    b[2][0] = [0, 0, -1]
    cases.append(SuperLieSpec(["x", "y", "z"], [0, 0, 0], b))
    seen = set()
    for L in cases:
        got = _verdicts(L)
        assert got == _old_validate_superlie(L)
        seen.add(got)
    assert seen == {(True, True), (False, False), (False, True), (True, False)}
