"""Jordan verdicts by polarisation against the dense paths they replaced.

The reference is a test-local copy of the earlier implementation:
  - the Jordan property: commutativity plus (x^2 y) x = x^2 (y x) on the
    4^n coordinate grid of x (cubic in each coordinate), y over the basis;
  - the W relations: G evaluated on a row-reduced basis of W;
  - the coalgebra checks: comultiplication as an n^2 x n matrix, the
    Kronecker-product chains, and the orthogonal projection of the
    four-fold difference onto W (one projector matrix per W, rather than a
    Gram solve per column);
  - the restricted braid check: the family a^2(x)b(x)a, a(x)b(x)a^2 over
    the 4^n grid for a and b, multiplied by the dense braid difference.
Inputs are random commutative algebras, basis-changed symmetrised
associative algebras (Jordan, so that PASS verdicts occur), and random
cocommutative coalgebras, all of dimension 2 or 3, drawn by a seeded
hypothesis strategy.
"""
import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ybforge import constructions
from ybforge.constructions import _adjoin_unit, jordan_r_restricted, r_algebra
from _dense import (mat_identity, mat_is_zero, mat_sub, mat_transpose, twist,
                    vec_is_zero)
from ybforge.exactla import (kron, mat_from_columns, mat_from_rows,
                             mat_inverse, mat_mul, row_space_basis)
from ybforge.structures import (AlgebraSpec, CoalgebraSpec, PreconditionError,
                                basis_vec, check_algebra_props,
                                coalgebra_props, dualize, jordan_co_check,
                                jordan_w_check, mul_vec)
from ybforge.registry import build
from ybforge.ybcore import _braid_kills, lift

MODES = ("pattern3", "full", "symmetrized")
GRID = [Fraction(g) for g in range(4)]
ENTRIES = [Fraction(x) for x in (0, 0, 0, 1, -1, 2)] + [Fraction(1, 2)]


# ---------- the earlier dense paths ----------

def old_jordan(A):
    n = A.n
    if any(A.c[i][j] != A.c[j][i] for i in range(n) for j in range(n)):
        return False
    for x in itertools.product(GRID, repeat=n):
        x = list(x)
        x2 = mul_vec(A, x, x)
        for j in range(n):
            y = basis_vec(n, j)
            if mul_vec(A, mul_vec(A, x2, y), x) != mul_vec(A, x2, mul_vec(A, y, x)):
                return False
    return True


@functools.lru_cache(maxsize=None)
def old_w_basis(n, mode):
    def generator(idx3, j, pos):
        v = [Fraction(0)] * n ** 4
        for perm in itertools.permutations(idx3):
            s = list(perm[:pos]) + [j] + list(perm[pos:])
            v[((s[0] * n + s[1]) * n + s[2]) * n + s[3]] += 1
        return v

    gens = []
    for idx3 in itertools.combinations_with_replacement(range(n), 3):
        for j in range(n):
            if mode == "pattern3":
                gens.append(generator(idx3, j, 2))
            elif mode == "full":
                gens.extend(generator(idx3, j, pos) for pos in range(4))
            else:
                parts = [generator(idx3, j, pos) for pos in range(4)]
                gens.append([sum(xs) for xs in zip(*parts)])
    return tuple(tuple(v) for v in row_space_basis(gens))


def old_g(A, w):
    n = A.n
    acc = [Fraction(0)] * n
    for flat, coef in enumerate(w):
        if coef:
            i, j, k, l = (flat // n ** 3, (flat // n ** 2) % n,
                          (flat // n) % n, flat % n)
            t1 = mul_vec(A, mul_vec(A, A.c[i][j], basis_vec(n, k)), basis_vec(n, l))
            t2 = mul_vec(A, A.c[i][j], A.c[k][l])
            acc = [a + coef * (x - y) for a, x, y in zip(acc, t1, t2)]
    return acc


def old_jordan_w(A, mode):
    return all(vec_is_zero(old_g(A, w)) for w in old_w_basis(A.n, mode))


@functools.lru_cache(maxsize=None)
def old_projector(n, mode):
    """Orthogonal projection onto W: B^T (B B^T)^-1 B, B the W basis rows."""
    b = mat_from_rows([list(v) for v in old_w_basis(n, mode)])
    bt = mat_transpose(b)
    return mat_mul(mat_mul(bt, mat_inverse(mat_mul(b, bt))), b)


def comul_mat(C):
    n = C.n
    return mat_from_columns([[C.d[k][i][j] for i in range(n) for j in range(n)]
                             for k in range(n)])


def old_coalgebra_props(C):
    n = C.n
    h = comul_mat(C)
    ident = mat_identity(n)
    cocomm = mat_mul(twist(n).mat, h) == h
    coassoc = mat_mul(kron(h, ident), h) == mat_mul(kron(ident, h), h)
    return cocomm, coassoc


def old_jordan_co(C, mode):
    n = C.n
    h = comul_mat(C)
    i1, i2 = mat_identity(n), mat_identity(n ** 2)
    two = mat_mul(kron(h, i1), h)
    d = mat_sub(mat_mul(kron(h, i2), two), mat_mul(kron(i2, h), two))
    return mat_is_zero(mat_mul(old_projector(n, mode), d))


def old_grid_family(J):
    """J with a unit (adjoined when it has none) and the 4^n x 4^n family."""
    if check_algebra_props(J).unital:
        jp, pad = J, []
    else:
        jp, pad = _adjoin_unit(J), [Fraction(0)]

    def kron3(a, b, c):
        return [x * y * z for x in a for y in b for z in c]

    family = []
    for ac in itertools.product(GRID, repeat=J.n):
        a = pad + list(ac)
        a2 = mul_vec(jp, a, a)
        for bc in itertools.product(GRID, repeat=J.n):
            b = pad + list(bc)
            family += [kron3(a2, b, a), kron3(a, b, a2)]
    return jp, family


def old_restricted(jp, family, alpha, beta, gamma):
    r = r_algebra(jp, alpha, beta, gamma)
    r12, r23 = lift(r, 12).mat, lift(r, 23).mat
    diff = mat_sub(mat_mul(mat_mul(r12, r23), r12), mat_mul(mat_mul(r23, r12), r23))
    return mat_is_zero(mat_mul(diff, mat_from_columns(family)))


# ---------- inputs ----------

# The symmetric 2x2 matrices, which symmetrising leaves unchanged, upper
# triangular 2x2, Q x Q, Q[x]/(x^2), Q[x]/(x^2 - 2), Q[x]/(x^3) and Q^3.
# The first two are not associative after symmetrising, so their full W
# relation can fail; hypothesis draws early entries most often.
def _base_tables():
    def power(n):
        return [[[Fraction(int(i + j == k)) for k in range(n)] for j in range(n)]
                for i in range(n)]

    def diag(n):
        return [[[Fraction(int(i == j == k)) for k in range(n)] for j in range(n)]
                for i in range(n)]

    split = [[[1, 0], [0, 1]], [[0, 1], [2, 0]]]
    units = {(0, 0): 0, (0, 1): 1, (1, 1): 2}
    tri = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for (a, b), i in units.items():
        for (p, q), j in units.items():
            if b == p:
                tri[i][j][units[a, q]] = Fraction(1)
    return [build("sym2jordan").c, tri, diag(2), power(2), split, power(3),
            diag(3)]


BASES = _base_tables()


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


@st.composite
def symmetrised_assoc(draw):
    """(xy + yx)/2 on an associative algebra, in the basis f_a = P e_a."""
    c = [[[Fraction(x) for x in row] for row in plane]
         for plane in draw(st.sampled_from(BASES))]
    n = len(c)
    p = draw(st.lists(st.lists(st.sampled_from([Fraction(x) for x in (-1, 0, 1, 2)]),
                               min_size=n, max_size=n), min_size=n, max_size=n)
             .filter(lambda m: _invert(m) is not None))
    q = _invert(p)
    cols = [[p[i][a] for i in range(n)] for a in range(n)]

    def jmul(u, v):
        out = [Fraction(0)] * n
        for i, j in itertools.product(range(n), repeat=2):
            if u[i] and v[j]:
                for k in range(n):
                    out[k] += u[i] * v[j] * (c[i][j][k] + c[j][i][k]) / 2
        return out

    table = [[[sum(q[k][i] * w[i] for i in range(n)) for k in range(n)]
              for w in (jmul(cols[a], cols[b]) for b in range(n))]
             for a in range(n)]
    return AlgebraSpec(["f%d" % i for i in range(n)], table)


@st.composite
def random_commutative(draw):
    n = draw(st.sampled_from([2, 3]))
    c = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            c[i][j] = c[j][i] = draw(st.lists(st.sampled_from(ENTRIES),
                                              min_size=n, max_size=n))
    return AlgebraSpec(["e%d" % i for i in range(n)], c)


@st.composite
def random_cocommutative(draw):
    a = draw(random_commutative())
    n = a.n
    return CoalgebraSpec(a.basis, [[[a.c[i][j][k] for j in range(n)]
                                    for i in range(n)] for k in range(n)])


algebras = st.one_of(random_commutative(), symmetrised_assoc())
coalgebras = st.one_of(random_cocommutative(), symmetrised_assoc().map(dualize))
SEEDED = settings(derandomize=True, max_examples=40, deadline=None,
                  database=None)


# ---------- comparisons ----------

def _assert_coverage(patterns, first):
    """Both verdicts of `first` and of every mode occur, and so does a Jordan
    structure whose full relation fails (pattern3 and symmetrized hold)."""
    names = (first,) + MODES
    seen = {(name, p[i]) for p in patterns for i, name in enumerate(names)}
    assert seen == {(name, v) for name in names for v in (True, False)}
    assert any(p[1:] == (True, False, True) for p in patterns)


def test_algebra_verdicts_match_the_dense_paths():
    patterns = set()

    @SEEDED
    @given(algebras)
    def check(a):
        jordan = check_algebra_props(a).jordan
        assert jordan == old_jordan(a)
        modes = tuple(jordan_w_check(a, mode) for mode in MODES)
        assert modes == tuple(old_jordan_w(a, mode) for mode in MODES)
        patterns.add((jordan,) + modes)

    check()
    _assert_coverage(patterns, "jordan")


def test_coalgebra_verdicts_match_the_dense_paths():
    patterns = set()

    @SEEDED
    @given(coalgebras)
    def check(c):
        props = coalgebra_props(c)
        assert (props.cocommutative, props.coassociative) == old_coalgebra_props(c)
        modes = tuple(jordan_co_check(c, mode) for mode in MODES)
        assert modes == tuple(old_jordan_co(c, mode) for mode in MODES)
        patterns.add((props.coassociative,) + modes)

    check()
    _assert_coverage(patterns, "coassociative")


def test_non_cocommutative_coalgebra_is_rejected():
    c = CoalgebraSpec(["e", "f"], [[[0, 1], [0, 0]], [[0, 0], [0, 1]]])
    assert old_coalgebra_props(c)[0] is False
    assert not coalgebra_props(c).cocommutative
    for mode in MODES:
        with pytest.raises(PreconditionError):
            jordan_co_check(c, mode)


def test_restricted_braid_matches_the_grid_family(monkeypatch):
    # jordan_r_restricted hands its family (sparse integer vectors) to the
    # check only when the full braid relation fails; record what it hands
    pushed = []

    def recording(r, vecs):
        pushed.append(vecs)
        return _braid_kills(r, vecs)

    monkeypatch.setattr(constructions, "_braid_kills", recording)
    seen = set()
    scalars = st.sampled_from([Fraction(x) for x in (0, 1, 2, 3)])
    triples = st.lists(st.tuples(scalars, scalars, scalars), min_size=3,
                       max_size=3)

    @settings(SEEDED, max_examples=10)
    @given(symmetrised_assoc().filter(lambda a: a.n == 2), triples)
    def check(a, abcs):
        jp, grid_family = old_grid_family(a)
        sparse = constructions._restricted_family(a, jp.n - a.n)
        for abc in abcs:
            pushed.clear()
            rep = jordan_r_restricted(a, *abc)
            assert rep.restricted == old_restricted(jp, grid_family, *abc)
            assert len(sparse) == rep.family_size
            assert pushed == ([] if rep.full else [sparse])
            seen.add(rep.restricted)
        # the polarised family spans the grid family's subspace
        family = [[Fraction(v.get(i, 0)) for i in range(jp.n ** 3)]
                  for v in sparse]
        rank = len(row_space_basis(family))
        assert rank == len(row_space_basis(grid_family))
        assert rank == len(row_space_basis(family + grid_family))

    check()
    assert seen == {True, False}
