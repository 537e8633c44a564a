"""Operators on V(x)V, their action on tensor slots of V(x)3, and the
braid-type checks.

Index convention everywhere: e_i (x) e_j sits at coordinate i*n + j, and
e_i (x) e_j (x) e_k at i*n^2 + j*n + k, row-major and zero-based.

Every identity on V(x)3 is decided by slot action: `act` applies an operator
R to slot pair (1,2), (2,3) or (1,3) of a sparse vector of integer
numerators, so R12 = R(x)I, R23 = I(x)R and R13 = (I(x)tau)(R(x)I)(I(x)tau)
are never formed as n^3 x n^3 matrices.  Each check pushes the basis vectors
e_c (the restricted braid check: its spanning vectors, scaled to integers)
through both words of an identity.  Both words are products of the same
factors, so their denominators agree and comparing numerators is exact.  A
verdict stops at the first column that differs; a witness is the row-major
first mismatch of the dense difference (smallest output index, then smallest
input column).

A factor that is polynomial in parameters is passed to
`yb_vanishes_expanded` as (monomial, operator) pieces.  The pieces of one
factor share one denominator, so every word of the expansion carries the
same denominator and its numerators compare exactly too.
"""
from collections import namedtuple
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import add, ne

from .exactla import (Mat, common_den, mat_inverse, mat_mul,
                      rat_pair_from_str)


class LinOp2:
    """Linear operator on V(x)V as an n^2 x n^2 exact matrix."""

    def __init__(self, n, mat):
        if mat.rows != n * n or mat.cols != n * n:
            raise ValueError("expected %d x %d matrix" % (n * n, n * n))
        self.n = n
        self.mat = mat
        self._cols = None
        self._views = {}

    def __eq__(self, other):
        if not isinstance(other, LinOp2):
            return NotImplemented
        return self.n == other.n and self.mat == other.mat

    def __repr__(self):
        return "LinOp2(n=%d)" % self.n


class LinOp3:
    """Linear operator on V(x)V(x)V as an n^3 x n^3 exact matrix."""

    def __init__(self, n, mat):
        if mat.rows != n ** 3 or mat.cols != n ** 3:
            raise ValueError("expected %d x %d matrix" % (n ** 3, n ** 3))
        self.n = n
        self.mat = mat

    def __eq__(self, other):
        if not isinstance(other, LinOp3):
            return NotImplemented
        return self.n == other.n and self.mat == other.mat


YbReport = namedtuple("YbReport", "braid invertible yb")


class WxzReport(namedtuple("WxzReport", "www zzz wxx xxz")):
    __slots__ = ()

    def all_hold(self):
        return self.www and self.zzz and self.wxx and self.xxz


def twist(n):
    """tau(v(x)w) = w(x)v as a permutation matrix."""
    num = [0] * n ** 4
    for i in range(n):
        for j in range(n):
            num[(j * n + i) * n * n + (i * n + j)] = 1
    return LinOp2(n, Mat(n * n, n * n, num, 1, _reduced=True))


def compose(a, b):
    if a.n != b.n:
        raise ValueError("dim mismatch")
    return LinOp2(a.n, mat_mul(a.mat, b.mat))


def _nonzero_columns(r):
    # [(row, numerator), ...] over the nonzero entries of each column of
    # r.mat, found by one scan of the numerators and kept on the operator
    cols = r._cols
    if cols is None:
        nn = r.n * r.n
        num = r.mat.num
        cols = [[] for _ in range(nn)]
        for idx in compress(range(len(num)), num):
            row, c = divmod(idx, nn)
            cols[c].append((row, num[idx]))
        r._cols = cols
    return cols


def _slot_view(r, pos):
    # Sparse view of r on slot pair pos, built once per operator from its
    # nonzero columns: view[idx] = (rest, column) for the basis index idx of
    # V(x)3, where column lists (offset, numerator) over the column of r that
    # idx feeds, and offset + rest is the output index.
    view = r._views.get(pos)
    if view is None:
        n = r.n
        nn = n * n
        if pos == 12:
            place = [row * n for row in range(nn)]
            split = [(idx // n, idx % n) for idx in range(nn * n)]
        elif pos == 23:
            place = list(range(nn))
            split = [(idx % nn, idx - idx % nn) for idx in range(nn * n)]
        elif pos == 13:
            place = [(row // n) * nn + row % n for row in range(nn)]
            split = [((idx // nn) * n + idx % n, idx % nn - idx % n)
                     for idx in range(nn * n)]
        else:
            raise ValueError("pos must be 12, 13 or 23")
        cols = [tuple((place[row], m) for row, m in col)
                for col in _nonzero_columns(r)]
        view = [(rest, cols[c]) for c, rest in split]
        r._views[pos] = view
    return view


def act(r, pos, vec):
    """Apply r to slot pair pos (12, 23 or 13) of a sparse vector on V(x)3.

    vec maps flat indices i*n^2 + j*n + k to integer numerators.  The result
    holds the numerators of r_pos vec over one more factor of r.mat.den, with
    zero entries dropped.
    """
    view = _slot_view(r, pos)
    out = {}
    get = out.get
    for idx, x in vec.items():
        rest, column = view[idx]
        for offset, m in column:
            o = offset + rest
            out[o] = get(o, 0) + x * m
    return {o: x for o, x in out.items() if x}


def lift(r, pos):
    """Lift a LinOp2 to slots (1,2), (1,3) or (2,3) of V^(x3) as a dense
    matrix, column by column through `act`."""
    n3 = r.n ** 3
    num = [0] * (n3 * n3)
    for c in range(n3):
        for row, x in act(r, pos, {c: 1}).items():
            num[row * n3 + c] = x
    return LinOp3(r.n, Mat(n3, n3, num, r.mat.den))


# A word is a tuple of factors (op, pos), applied right to left.  The two
# words of an identity hold the same factors, so their numerators share one
# denominator: the product of the factors' denominators.

def _apply_word(word, vec):
    for op, pos in reversed(word):
        vec = act(op, pos, vec)
    return vec


def _columns(lhs, rhs):
    # (c, lhs e_c, rhs e_c) for every basis vector e_c of V(x)3
    for c in range(lhs[0][0].n ** 3):
        yield c, _apply_word(lhs, {c: 1}), _apply_word(rhs, {c: 1})


def _words_agree(lhs, rhs):
    return all(a == b for _c, a, b in _columns(lhs, rhs))


def _words_witness(lhs, rhs):
    """((i,j,k) in, (i,j,k) out) at the row-major first entry where the two
    words differ, or None."""
    best = None
    for c, a, b in _columns(lhs, rhs):
        if a != b:
            row = min(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            if best is None or row < best[0]:
                best = (row, c)
                if row == 0:
                    break
    if best is None:
        return None
    n = lhs[0][0].n
    return tuple((flat // n ** 2, (flat // n) % n, flat % n)
                 for flat in (best[1], best[0]))


def _braid_words(r):
    return ((r, 12), (r, 23), (r, 12)), ((r, 23), (r, 12), (r, 23))


def _yb_words(r, s, t):
    if not (r.n == s.n == t.n):
        raise ValueError("dim mismatch")
    return ((r, 12), (s, 13), (t, 23)), ((t, 23), (s, 13), (r, 12))


def braid_check(r):
    return _words_agree(*_braid_words(r))


def braid_witness(r):
    """None when the braid equation holds; else ((i,j,k) in, (i,j,k) out)."""
    return _words_witness(*_braid_words(r))


def qybe_check(r):
    return yb_vanishes(r, r, r)


def qybe_witness(r):
    """None when the QYBE holds; else ((i,j,k) in, (i,j,k) out)."""
    return _words_witness(*_yb_words(r, r, r))


def is_yb_operator(r):
    """Braid + invertibility; yb = both (the definition of a YB operator)."""
    braid = braid_check(r)
    invertible = mat_inverse(r.mat) is not None
    return YbReport(braid, invertible, braid and invertible)


def braid_qybe_equiv(r):
    """Metamorphic identity: braid(R) <=> QYBE(R tau) <=> QYBE(tau R)."""
    tau = twist(r.n)
    b = braid_check(r)
    q1 = qybe_check(compose(r, tau))
    q2 = qybe_check(compose(tau, r))
    return b == q1 == q2


def yb_vanishes(r, s, t):
    """True iff [R,S,T] = 0, stopping at the first column that differs."""
    return _words_agree(*_yb_words(r, s, t))


def _expand_word(word, term):
    # (monomial, numerators) for each choice of one piece per factor, starting
    # from term and applying the factors right to left; choices that vanish
    # are dropped
    terms = [term]
    for pieces, pos in reversed(word):
        terms = [(tuple(map(add, m, mono)), act(op, pos, v))
                 for m, v in terms for mono, op in pieces]
        terms = [(m, v) for m, v in terms if v]
    return terms


def yb_vanishes_expanded(r, s, t):
    """True iff [R,S,T] = 0 for every value of the parameters.

    R, S and T are polynomial in the parameters, each given as a sequence of
    (monomial, LinOp2) pieces: the monomial is a tuple of exponents, and the
    factor is the sum of monomial * operator.  Both words R12 S13 T23 and
    T23 S13 R12 are expanded into one word per choice of pieces; each basis
    vector e_c is pushed through every word with `act`, and the results are
    grouped by the product monomial.  The identity holds for all parameter
    values iff every group's coefficient column is zero, so the verdict stops
    at the first monomial of the first column whose coefficient is nonzero.

    The pieces of one factor must share one denominator (their mat.den), so
    that the numerators of all words agree in denominator and compare
    exactly.
    """
    for pieces in (r, s, t):
        if len({op.mat.den for _m, op in pieces}) != 1:
            raise ValueError("pieces of a factor must share one denominator")
    n = r[0][1].n
    if any(op.n != n for pieces in (r, s, t) for _m, op in pieces):
        raise ValueError("dim mismatch")
    lhs = ((r, 12), (s, 13), (t, 23))
    rhs = ((t, 23), (s, 13), (r, 12))
    one = (0,) * len(r[0][0])
    for c in range(n ** 3):
        groups = {}
        for word, sign in ((lhs, 1), (rhs, -1)):
            for mono, vec in _expand_word(word, (one, {c: 1})):
                acc = groups.setdefault(mono, {})
                for k, x in vec.items():
                    acc[k] = acc.get(k, 0) + sign * x
        if any(any(acc.values()) for acc in groups.values()):
            return False
    return True


def wxz_check(w, x, z):
    """The four commutator conditions [W,W,W], [Z,Z,Z], [W,X,X], [X,X,Z]."""
    if not (w.n == x.n == z.n):
        raise ValueError("dim mismatch")
    return WxzReport(
        www=yb_vanishes(w, w, w),
        zzz=yb_vanishes(z, z, z),
        wxx=yb_vanishes(w, x, x),
        xxz=yb_vanishes(x, x, z),
    )


def restricted_braid_check(r, spanning):
    """True iff the braid difference kills every spanning vector of V^(x3).

    Each rational vector is scaled to integer numerators, which leaves its
    kernel membership unchanged, and pushed through both braid words."""
    n3 = r.n ** 3
    for v in spanning:
        if len(v) != n3:
            raise ValueError("spanning vector dim %d != %d" % (len(v), n3))
    return _braid_kills(r, [{i: x for i, x in enumerate(common_den(v)[0]) if x}
                            for v in spanning])


def _braid_kills(r, vecs):
    """True iff both braid words agree on every sparse integer vector."""
    lhs, rhs = _braid_words(r)
    return all(_apply_word(lhs, v) == _apply_word(rhs, v) for v in vecs)


def linop2_to_json(r):
    """Each entry in rat_to_str's form; only the nonzero ones are formatted."""
    den, nn = r.mat.den, r.mat.cols
    rows = [["0"] * nn for _ in range(nn)]
    for c, col in enumerate(_nonzero_columns(r)):
        for row, x in col:
            g = gcd(x, den)
            rows[row][c] = (str(x // g) if g == den
                            else "%d/%d" % (x // g, den // g))
    return {"kind": "linop2", "n": r.n, "mat": rows}


def linop2_from_json(obj):
    """Entries in any form rat_from_str accepts; only those other than the
    string "0", found in one scan, are parsed."""
    if not isinstance(obj, dict) or obj.get("kind") != "linop2":
        raise ValueError("not a linop2 object")
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer, got %r" % (n,))
    mat = obj["mat"]
    if not isinstance(mat, list) or len(mat) != n * n:
        raise ValueError("mat must be a list of %d rows" % (n * n))
    for row in mat:
        if not isinstance(row, list) or len(row) != n * n:
            raise ValueError("each row of mat must be a list of %d entries"
                             % (n * n))
    flat = list(chain.from_iterable(mat))
    where = list(compress(range(len(flat)), map(ne, flat, repeat("0"))))
    pq = [rat_pair_from_str(flat[i]) for i in where]
    den = lcm(*[q for _p, q in pq])
    num = [0] * len(flat)
    for i, (p, q) in zip(where, pq):
        num[i] = p * (den // q)
    return LinOp2(n, Mat(n * n, n * n, num, den))
