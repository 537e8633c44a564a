"""Dense `Fraction` references for the integer checks of `structures`,
`constructions._formula_op` and the operator file format.

Each function here is the rational-arithmetic implementation that the
package used before its checks moved to integer numerators over one common
denominator.  They read only the public `Fraction` tables (`A.c`, `S.b`,
`S.theta`, `r.mat.to_rows()`), so a test can compare verdicts, operators and
files of the package against them.

The last section holds dense matrix helpers that the package itself no
longer calls (the identity, scaling, transpose, entrywise sums and
differences, zero tests, matrix times vector, the twist tau on V(x)V and
composition by dense product, dense lifts to slot pairs of V(x)3, the
row-major first mismatch of two dense matrices and the dense commutator
[R,S,T]); tests build their references with them.  The
lifts read r.mat entry by entry, never a slot view of the package.
"""
import itertools
from fractions import Fraction

from ybforge.exactla import (Mat, _aligned, mat_from_columns, mat_from_rows,
                             mat_mul, rat_from_str, rat_to_str)
from ybforge.structures import (SuperLieSpec, _w_generators, dualize_co,
                                group_elements)
from ybforge.ybcore import LinOp2, LinOp3


def basis_vec(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def mul_vec(A, u, v):
    """Bilinear extension of the structure constants A.c."""
    out = [Fraction(0)] * A.n
    for i in range(A.n):
        if u[i]:
            ci = A.c[i]
            for j in range(A.n):
                if v[j]:
                    uv = u[i] * v[j]
                    row = ci[j]
                    for k in range(A.n):
                        if row[k]:
                            out[k] += uv * row[k]
    return out


def unit_valid(A):
    if A.unit is None:
        return False
    for i in range(A.n):
        e = basis_vec(A.n, i)
        if mul_vec(A, A.unit, e) != e or mul_vec(A, e, A.unit) != e:
            return False
    return True


def commutative(A):
    n = A.n
    return all(A.c[i][j] == A.c[j][i] for i in range(n) for j in range(i + 1, n))


def associative(A):
    n = A.n
    for i in range(n):
        for j in range(n):
            eij = A.c[i][j]
            for k in range(n):
                lhs = mul_vec(A, eij, basis_vec(n, k))
                if lhs != mul_vec(A, basis_vec(n, i), A.c[j][k]):
                    return False
    return True


def g_vanishes_on_w(A, mode):
    """True iff G = ((v1 v2) v3) v4 - (v1 v2)(v3 v4) is zero on every W
    generator of the mode."""
    n = A.n
    memo = {}

    def g(a, b, c, d):
        key = (a, b, c, d)
        if key not in memo:
            ab = A.c[a][b]
            t1 = mul_vec(A, mul_vec(A, ab, basis_vec(n, c)), basis_vec(n, d))
            t2 = mul_vec(A, ab, A.c[c][d])
            memo[key] = [x - y for x, y in zip(t1, t2)]
        return memo[key]

    for terms in _w_generators(n, mode):
        acc = [Fraction(0)] * n
        for t in terms:
            acc = [x + y for x, y in zip(acc, g(*t))]
        if not vec_is_zero(acc):
            return False
    return True


def coalgebra_verdicts(C, mode):
    """(cocommutative, coassociative, Jordan-co in mode) through the dual."""
    A = dualize_co(C)
    return commutative(A), associative(A), g_vanishes_on_w(A, mode)


def validate_colorlie(S):
    """(bicharacter, antisym, jacobi) of a colour-Lie or super-Lie bracket."""
    if isinstance(S, SuperLieSpec):
        S = S.as_colorlie()
    n = S.n
    elems = list(group_elements(S.moduli))
    th = S.theta
    bich = True
    for a in elems:
        for b in elems:
            if th[a, b] * th[b, a] != 1:
                bich = False
            for c in elems:
                if th[S.group_add(a, b), c] != th[a, c] * th[b, c]:
                    bich = False
                if th[a, S.group_add(b, c)] != th[a, b] * th[a, c]:
                    bich = False
    antisym = True
    for i in range(n):
        for j in range(n):
            t = th[S.grading[i], S.grading[j]]
            if S.b[i][j] != [-t * x for x in S.b[j][i]]:
                antisym = False
    jacobi = True
    for i in range(n):
        for j in range(n):
            for k in range(n):
                a, b, c = S.grading[i], S.grading[j], S.grading[k]
                t1 = mul_vec(S, basis_vec(n, i), S.b[j][k])
                t2 = mul_vec(S, basis_vec(n, k), S.b[i][j])
                t3 = mul_vec(S, basis_vec(n, j), S.b[k][i])
                acc = [th[c, a] * x + th[b, c] * y + th[a, b] * z
                       for x, y, z in zip(t1, t2, t3)]
                if not vec_is_zero(acc):
                    jacobi = False
    return bich, antisym, jacobi


def formula_op(A, z, c_ab1, c_1ab, c_swap, c_diag, grading=None):
    """Column (i,j): c_ab1 (e_i e_j)(x)z + c_1ab z(x)(e_i e_j)
    - s (c_swap e_j(x)e_i + c_diag e_i(x)e_j), s the Z2 sign."""
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
                            if z[l]:
                                prod = ab[k] * z[l]
                                if c_ab1:
                                    col[k * n + l] += c_ab1 * prod
                                if c_1ab:
                                    col[l * n + k] += c_1ab * prod
            swap, diag = c_swap, c_diag
            if grading and grading[i] and grading[j]:
                swap, diag = -swap, -diag
            if swap:
                col[j * n + i] -= swap
            if diag:
                col[i * n + j] -= diag
            cols.append(col)
    return LinOp2(n, mat_from_columns(cols))


def restricted_family(jp, offset):
    """The polarised squares family of `jordan_r_restricted` as dense
    rational vectors on V^(x3), V = jp, over the basis elements from offset:
    the loop it ran before it read the family from the pattern3 W vectors
    (`constructions._restricted_family`)."""
    m = jp.n
    own = range(offset, m)
    family = []
    for idx3 in itertools.combinations_with_replacement(own, 3):
        perms = list(itertools.permutations(idx3))
        for b in own:
            sq_b_a = [Fraction(0)] * m ** 3
            a_b_sq = [Fraction(0)] * m ** 3
            for p, q, s in perms:
                for k, x in enumerate(jp.c[p][q]):
                    if x:
                        sq_b_a[(k * m + b) * m + s] += x
                        a_b_sq[(s * m + b) * m + k] += x
            family += [sq_b_a, a_b_sq]
    return family


def linop2_to_json(r):
    return {"kind": "linop2", "n": r.n,
            "mat": [[rat_to_str(x) for x in row] for row in r.mat.to_rows()]}


def linop2_from_json(obj):
    """The entries only; the shape checks are the package's."""
    n = obj["n"]
    return LinOp2(n, mat_from_rows([[rat_from_str(x) for x in row]
                                    for row in obj["mat"]]))


# ---------- dense matrix helpers ----------

def mat_identity(n):
    num = [0] * (n * n)
    for i in range(n):
        num[i * n + i] = 1
    return Mat(n, n, num, 1, _reduced=True)


def mat_scale(a, s):
    s = Fraction(s)
    return Mat(a.rows, a.cols, [x * s.numerator for x in a.num],
               a.den * s.denominator)


def mat_transpose(a):
    num = [0] * (a.rows * a.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            num[j * a.rows + i] = a.num[i * a.cols + j]
    return Mat(a.cols, a.rows, num, a.den, _reduced=True)


def mat_zeros(rows, cols):
    return Mat(rows, cols, [0] * (rows * cols), 1, _reduced=True)


def mat_add(a, b):
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")
    na, nb, d = _aligned(a, b)
    return Mat(a.rows, a.cols, [x + y for x, y in zip(na, nb)], d)


def mat_sub(a, b):
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")
    na, nb, d = _aligned(a, b)
    return Mat(a.rows, a.cols, [x - y for x, y in zip(na, nb)], d)


def mat_is_zero(a):
    return not any(a.num)


def vec_is_zero(v):
    return not any(v)


def mat_apply(a, v):
    """Apply a to a coordinate vector (length a.cols)."""
    if len(v) != a.cols:
        raise ValueError("dim mismatch")
    out = []
    for i in range(a.rows):
        base = i * a.cols
        s = sum(a.num[base + j] * v[j] for j in range(a.cols) if a.num[base + j])
        out.append(Fraction(s, a.den) if isinstance(s, int) else s / a.den)
    return out


def identity2(n):
    return LinOp2(n, mat_identity(n * n))


def twist(n):
    """tau(v(x)w) = w(x)v as a permutation matrix."""
    num = [0] * n ** 4
    for i in range(n):
        for j in range(n):
            num[(j * n + i) * n * n + (i * n + j)] = 1
    return LinOp2(n, Mat(n * n, n * n, num, 1, _reduced=True))


def compose(a, b):
    """a b by the dense product of their matrices."""
    if a.n != b.n:
        raise ValueError("dim mismatch")
    return LinOp2(a.n, mat_mul(a.mat, b.mat))


def dense_lift(r, pos):
    """R12, R23 or R13 on V(x)3 as a dense Mat, entry by entry from the rows
    of r.mat: an entry is nonzero only where the slot that R does not touch
    keeps its index."""
    n = r.n
    rows = r.mat.to_rows()
    out = [[Fraction(0)] * n ** 3 for _ in range(n ** 3)]
    for i, j, k, p, q, s in itertools.product(range(n), repeat=6):
        col, row = (i * n + j) * n + k, (p * n + q) * n + s
        if pos == 12 and k == s:
            out[row][col] = rows[p * n + q][i * n + j]
        elif pos == 23 and i == p:
            out[row][col] = rows[q * n + s][j * n + k]
        elif pos == 13 and j == q:
            out[row][col] = rows[p * n + s][i * n + k]
    return mat_from_rows(out)


def dense_word(*factors):
    """The dense product of the lifts (op, pos), written left to right."""
    out = None
    for op, pos in factors:
        lifted = dense_lift(op, pos)
        out = lifted if out is None else mat_mul(out, lifted)
    return out


def dense_witness(n, lhs, rhs):
    """((i,j,k) in, (i,j,k) out) at the row-major first entry where two dense
    matrices on V(x)3 differ (smallest row, then smallest column), or None."""
    for row in range(lhs.rows):
        cols = [c for c in range(lhs.cols) if lhs.entry(row, c) != rhs.entry(row, c)]
        if cols:
            return tuple((flat // n ** 2, (flat // n) % n, flat % n)
                         for flat in (cols[0], row))
    return None


def yb_commutator(r, s, t):
    """[R,S,T] = R12 S13 T23 - T23 S13 R12 on V^(x3), from dense lifts."""
    if not (r.n == s.n == t.n):
        raise ValueError("dim mismatch")
    return LinOp3(r.n, mat_sub(dense_word((r, 12), (s, 13), (t, 23)),
                               dense_word((t, 23), (s, 13), (r, 12))))
