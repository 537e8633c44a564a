"""Operators on V(x)V, their action on tensor slots of V(x)3, and the
braid-type checks.

Index convention everywhere: e_i (x) e_j sits at coordinate i*n + j, and
e_i (x) e_j (x) e_k at i*n^2 + j*n + k, row-major and zero-based.

Every identity on V(x)3 is decided by slot action through one kernel,
`_push`: it pushes (monomial, sparse vector) terms through a word's
factors, each a list of (monomial, slot view) pieces, so R12 = R(x)I,
R23 = I(x)R and R13 = (I(x)tau)(R(x)I)(I(x)tau) are never formed as
n^3 x n^3 matrices.  A plain operator is one piece at monomial 0; a factor
polynomial in parameters (`yb_vanishes_expanded`) has one piece per
monomial, and the pieces of one factor share one denominator.  Each check
pushes the basis vectors e_c (the restricted braid check: its spanning
vectors, scaled to integers) through both words of an identity, which hold
the same factors, so comparing numerators is exact.  A verdict stops at the
first column that differs; a witness is the row-major first mismatch of the
dense difference (smallest output index, then smallest input column).
"""
from collections import namedtuple
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import eq, ne

from .exactla import Mat, common_den, mat_inverse, rat_pair_from_str


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


def with_twist(r, left=False):
    """tau R when left, else R tau, tau(v(x)w) = w(x)v: composing with tau
    only relabels the rows or the columns of R."""
    n, nn, num = r.n, r.n * r.n, r.mat.num
    swap = [j * n + i for i in range(n) for j in range(n)]
    if left:
        out = [num[swap[row] * nn + c] for row in range(nn) for c in range(nn)]
    else:
        out = [num[row * nn + swap[c]] for row in range(nn) for c in range(nn)]
    return LinOp2(n, Mat(nn, nn, out, r.mat.den))


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
        n, nn = r.n, r.n * r.n
        if pos not in (12, 13, 23):
            raise ValueError("pos must be 12, 13 or 23")
        place = (range(0, nn * n, n) if pos == 12 else range(nn) if pos == 23
                 else [i + k for i in range(0, nn * n, nn) for k in range(n)])
        cols = [[(place[row], m) for row, m in col]
                for col in _nonzero_columns(r)]
        if pos == 12:
            view = [(k, col) for col in cols for k in range(n)]
        elif pos == 23:
            view = [(rest, col) for rest in range(0, nn * n, nn) for col in cols]
        else:
            view = [(rest, col) for i in range(0, nn, n)
                    for rest in range(0, nn, n) for col in cols[i:i + n]]
        r._views[pos] = view
    return view


def _push(word, starts):
    """The slot-action kernel: yields {monomial: numerators} of word on each
    start.  word lists its factors in the order they apply, as (monomial,
    slot view) pieces with distinct int monomials (a plain operator is one
    piece at 0).  A start is a sparse vector, or a basis index c, which
    begins as e_c's placed view columns.  Terms of one monomial are summed;
    zero entries are dropped only at the end, so plain words compare by ==.
    """
    first, later = word[0], word[1:]
    for start in starts:
        if type(start) is int:
            terms = {}
            for mono, view in first:
                rest, column = view[start]
                terms[mono] = {offset + rest: m for offset, m in column}
            factors = later
        else:
            terms, factors = {0: start}, word
        for pieces in factors:
            out = {}
            for base, vec in terms.items():
                for mono, view in pieces:
                    acc = out.setdefault(base + mono, {})
                    get = acc.get
                    for idx, x in vec.items():
                        rest, column = view[idx]
                        for offset, m in column:
                            o = offset + rest
                            acc[o] = get(o, 0) + x * m
            terms = out
        out = {}
        for mono, vec in terms.items():
            if 0 in vec.values():
                vec = {o: x for o, x in vec.items() if x}
            if vec:
                out[mono] = vec
        yield out


def act(r, pos, vec):
    """r on slot pair pos (12, 23 or 13) of a sparse vector of integer
    numerators on V(x)3, over one more factor of r.mat.den, without zeros."""
    return next(_push([((0, _slot_view(r, pos)),)], (vec,))).get(0, {})


def lift(r, pos):
    """Lift a LinOp2 to slots (1,2), (1,3) or (2,3) of V^(x3) as a dense
    matrix, column by column through `act`."""
    n3 = r.n ** 3
    num = [0] * (n3 * n3)
    for c in range(n3):
        for row, x in act(r, pos, {c: 1}).items():
            num[row * n3 + c] = x
    return LinOp3(r.n, Mat(n3, n3, num, r.mat.den))


def _word(*factors):
    """The kernel's word for the factors (op, pos), written left to right."""
    return [((0, _slot_view(op, pos)),) for op, pos in reversed(factors)]


def _words_agree(lhs, rhs, starts):
    # the words on every start, up to the first one where they differ
    return all(map(eq, _push(lhs, starts), _push(rhs, starts)))


def _words_witness(lhs, rhs, n):
    """((i,j,k) in, (i,j,k) out) at the row-major first entry where the two
    plain words differ, or None."""
    best, cols = None, range(n ** 3)
    for c, a, b in zip(cols, _push(lhs, cols), _push(rhs, cols)):
        if a != b:
            a, b = a.get(0, {}), b.get(0, {})
            row = min(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            if best is None or row < best[0]:
                best = (row, c)
                if row == 0:
                    break
    if best is None:
        return None
    return tuple((flat // n ** 2, (flat // n) % n, flat % n)
                 for flat in (best[1], best[0]))


def _braid_words(r):
    return _word((r, 12), (r, 23), (r, 12)), _word((r, 23), (r, 12), (r, 23))


def _yb_words(r, s, t):
    if not (r.n == s.n == t.n):
        raise ValueError("dim mismatch")
    return _word((r, 12), (s, 13), (t, 23)), _word((t, 23), (s, 13), (r, 12))


def braid_check(r):
    return _words_agree(*_braid_words(r), range(r.n ** 3))


def braid_witness(r):
    """None when the braid equation holds; else ((i,j,k) in, (i,j,k) out)."""
    return _words_witness(*_braid_words(r), r.n)


def qybe_check(r):
    return yb_vanishes(r, r, r)


def qybe_witness(r):
    """None when the QYBE holds; else ((i,j,k) in, (i,j,k) out)."""
    return _words_witness(*_yb_words(r, r, r), r.n)


def is_yb_operator(r):
    """Braid + invertibility; yb = both (the definition of a YB operator)."""
    braid = braid_check(r)
    invertible = mat_inverse(r.mat) is not None
    return YbReport(braid, invertible, braid and invertible)


def composes_to_identity(a, b):
    """True iff a b = I on V(x)V: the word (b, a) on slot pair 12 takes each
    e_c(x)e_0 to itself, over the denominator a.mat.den * b.mat.den."""
    starts, den = range(0, a.n ** 3, a.n), a.mat.den * b.mat.den
    return all(out == {0: {c: den}} for c, out
               in zip(starts, _push(_word((a, 12), (b, 12)), starts)))


def braid_qybe_equiv(r, braid=None):
    """Metamorphic identity: braid(R) <=> QYBE(R tau) <=> QYBE(tau R), with
    braid the braid verdict of R when the caller already has it."""
    b = braid_check(r) if braid is None else braid
    return (b == qybe_check(with_twist(r))
            == qybe_check(with_twist(r, left=True)))


def yb_vanishes(r, s, t):
    """True iff [R,S,T] = 0, stopping at the first column that differs."""
    return _words_agree(*_yb_words(r, s, t), range(r.n ** 3))


def yb_vanishes_expanded(r, s, t):
    """True iff [R,S,T] = 0 for every value of the parameters.

    R, S and T are polynomial in the parameters, each given as a sequence of
    (monomial, LinOp2) pieces with distinct monomials: the monomial is a
    tuple of exponents, and the factor is the sum of monomial * operator.
    The kernel gets each monomial packed into one int, in signed fields wide
    enough for a product of three factors.  The identity holds iff both
    words agree on every monomial of every column e_c.  The pieces of one
    factor must share one denominator (their mat.den), so that the
    numerators of all words agree in denominator and compare exactly.
    """
    for pieces in (r, s, t):
        if len({op.mat.den for _m, op in pieces}) != 1:
            raise ValueError("pieces of a factor must share one denominator")
        if len({m for m, _op in pieces}) != len(pieces):
            raise ValueError("monomials of a factor must be distinct")
    n = r[0][1].n
    if any(op.n != n for pieces in (r, s, t) for _m, op in pieces):
        raise ValueError("dim mismatch")
    width = 1 + (3 * max((abs(e) for pieces in (r, s, t) for m, _op in pieces
                          for e in m), default=0)).bit_length()
    rhs = [[(sum(e << width * i for i, e in enumerate(m)), _slot_view(op, pos))
            for m, op in pieces] for pieces, pos in ((r, 12), (s, 13), (t, 23))]
    return _words_agree(rhs[::-1], rhs, range(n ** 3))


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
    return _words_agree(lhs, rhs, vecs)


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
