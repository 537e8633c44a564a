"""Exact rational linear algebra.

Scalars are arbitrary-precision rationals (fractions.Fraction, aliased Rat).
A Mat stores one common positive denominator and a flat row-major list of
integer numerators, canonically reduced.  Equality is exact everywhere;
there is no tolerance anywhere in this package.  No check multiplies or
inverts matrices: `mat_mul`, `kron` (on the big-integer kernels of
`_kernels`) and `mat_inverse` are reached from no other module and stay
only while perfbench hooks them.

One grammar, `rat_pair_from_str`, reads rational text in files, on the
command line and in `to_rat`; one reader, `common_den`, takes rationals to
integers over one denominator, and one writer, `rat_to_str`, back.  Floats
are refused: their binary expansion is seldom the rational meant.  One
elimination, `gauss_jordan`, serves `ybcore.invertible` (R's rows),
`ybcore.yb_forms` (the coefficient forms of [R,S,T]), `mat_inverse`
([A | I]), `row_space_basis` and `project_onto` ([Gram | rhs]).
"""
from fractions import Fraction
from math import gcd, lcm

from . import _kernels

Rat = Fraction


def rat_pair_from_str(s):
    """(p, q), q > 0 not always reduced, the value p/q of the text s: "p"
    and "p/q" are read straight to integers, else Fraction's parser also
    takes "p.d", blanks around, a "+", "_" digit groups and non-ASCII digits.
    A non-string is a TypeError; an exponent form ("1e9", its size unbounded
    by the length of the text) and a zero denominator are a ValueError."""
    if not isinstance(s, str):
        raise TypeError("expected a rational as a string, got %s %r"
                        % (type(s).__name__, s))
    if s.isascii():
        p, slash, q = s.partition("/")
        if p.removeprefix("-").isdigit() and (q.isdigit() or not slash):
            q = int(q) if slash else 1
            if q:
                return int(p), q
    if "e" in s or "E" in s:
        raise ValueError("exponent form not accepted: %r" % s)
    try:
        x = Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % s) from None
    return x.numerator, x.denominator


def rat_from_str(s):
    """The text s (see rat_pair_from_str) as a Rat."""
    return Fraction(*rat_pair_from_str(s))


def _pair(x):
    """(p, q), q > 0, of x as to_rat reads it; q need not be reduced."""
    if isinstance(x, (int, Fraction)):
        return x.as_integer_ratio()
    if isinstance(x, str):
        return rat_pair_from_str(x)
    if isinstance(x, float):
        raise TypeError("floats are not accepted as rationals, got %r" % x)
    return Fraction(x).as_integer_ratio()


def to_rat(x):
    """x (Rat, int or rat_pair_from_str text) as a Rat, a Rat unchanged; a
    float is a TypeError: 0.1 would become 3602879701896397/36028797018963968."""
    return x if isinstance(x, Fraction) else Fraction(*_pair(x))


def rat_to_str(x, den=1):
    """Canonical text of x / den (x as to_rat reads it, den a positive int):
    "p/q" in lowest terms, bare "p" when q is 1."""
    x, q = _pair(x)
    den *= q
    g = gcd(x, den)
    return str(x // g) if g == den else "%d/%d" % (x // g, den // g)


class Mat:
    """Dense exact matrix: integer numerators over one common denominator."""

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows, cols, num, den=1, _reduced=False):
        if len(num) != rows * cols:
            raise ValueError("entry count %d != %d*%d" % (len(num), rows, cols))
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num = [-x for x in num]
            den = -den
        if not _reduced and den != 1:
            g = gcd(den, *num) if num else den
            if g > 1:
                num = [x // g for x in num]
                den //= g
        self.rows = rows
        self.cols = cols
        self.num = num
        self.den = den

    def entry(self, i, j):
        return Fraction(self.num[i * self.cols + j], self.den)

    def to_rows(self):
        d = self.den
        return [[Fraction(x, d) for x in self.num[i * self.cols:(i + 1) * self.cols]]
                for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, tuple(self.num)))

    def __repr__(self):
        return "Mat(%dx%d, den=%d)" % (self.rows, self.cols, self.den)


def common_den(values, pair=_pair):
    """Rationals as (integer numerators, den), den the lcm of their reduced
    denominators: value i is numerators[i] / den.  pair(x) is (p, q), q > 0,
    of one value, by default of a Rat, an int or a string (to_rat), where a
    zero int or Rat is (0, 1) with no call, as is the text "0" for any pair."""
    texts = {"0": (0, 1)}  # each distinct string is read once, "0" never
    # type(0.0) is float, refused by _pair; another pair sees every number
    zeros = (int, Fraction) if pair is _pair else ()
    pq = [(texts.get(x) or texts.setdefault(x, pair(x))) if isinstance(x, str)
          else (0, 1) if type(x) in zeros and not x else pair(x) for x in values]
    den = lcm(*[q // gcd(p, q) for p, q in pq])
    return [p * den // q for p, q in pq], den


def mat_from_rows(rows):
    """Build a Mat from nested Rat/int/str entries."""
    r = len(rows)
    c = len(rows[0]) if r else 0
    if any(len(row) != c for row in rows):
        raise ValueError("ragged rows")
    num, den = common_den([x for row in rows for x in row])
    return Mat(r, c, num, den)


def mat_mul(a, b):
    if a.cols != b.rows:
        raise ValueError("shape mismatch: %dx%d by %dx%d"
                         % (a.rows, a.cols, b.rows, b.cols))
    num = _kernels.matmul_pure(a.num, b.num, a.rows, a.cols, b.cols)
    return Mat(a.rows, b.cols, num, a.den * b.den)


def kron(a, b):
    ra, ca, rb, cb = a.rows, a.cols, b.rows, b.cols
    num = _kernels.kron_pure(a.num, b.num, ra, ca, rb, cb)
    return Mat(ra * rb, ca * cb, num, a.den * b.den)


def _aligned(a, b):
    # common denominator lcm, scaled numerator lists
    d = a.den * b.den // gcd(a.den, b.den)
    sa, sb = d // a.den, d // b.den
    na = a.num if sa == 1 else [x * sa for x in a.num]
    nb = b.num if sb == 1 else [x * sb for x in b.num]
    return na, nb, d


def first_mismatch(a, b):
    """(row, col) of the first differing entry, or None if equal."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")
    na, nb, _ = _aligned(a, b)
    for idx, (x, y) in enumerate(zip(na, nb)):
        if x != y:
            return divmod(idx, a.cols)
    return None


def gauss_jordan(rows, ncols, full_rank=False):
    """Reduce rows (lists of Rat, reassigned in place) to reduced row-echelon
    form over their first ncols columns, by Gauss-Jordan elimination with the
    first nonzero pivot; the remaining columns ride along.  Returns the pivot
    columns, or None under full_rank at the first column without a pivot."""
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        piv = next((r for r in range(top, len(rows)) if rows[r][col] != 0),
                   None)
        if piv is None:
            if full_rank:
                return None
            continue
        if piv != top:
            rows[top], rows[piv] = rows[piv], rows[top]
        pv = rows[top][col]
        if pv != 1:
            rows[top] = [x / pv for x in rows[top]]
        prow = rows[top]
        for r in range(len(rows)):
            if r != top and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], prow)]
        pivots.append(col)
    return pivots


def mat_inverse(a):
    """Exact inverse by Gauss-Jordan elimination; None when singular."""
    if a.rows != a.cols:
        raise ValueError("not square")
    n = a.rows
    aug = [row + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a.to_rows())]
    if gauss_jordan(aug, n, full_rank=True) is None:
        return None
    return mat_from_rows([row[n:] for row in aug])


# Vectors are plain lists of Rat.

def vec_dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def mat_from_columns(vecs):
    """Stack vectors as the columns of a Mat."""
    if not vecs:
        raise ValueError("no columns")
    dim = len(vecs[0])
    if any(len(v) != dim for v in vecs):
        raise ValueError("dim mismatch")
    num, den = common_den([v[i] for i in range(dim) for v in vecs])
    return Mat(dim, len(vecs), num, den)


def row_space_basis(vecs):
    """Reduced row-echelon basis of the span; deterministic for a fixed order."""
    if not vecs:
        return []
    dim = len(vecs[0])
    if any(len(v) != dim for v in vecs):
        raise ValueError("dim mismatch")
    rows = [[to_rat(x) for x in v] for v in vecs]
    return rows[:len(gauss_jordan(rows, dim))]


def project_onto(basis, v):
    """Orthogonal projection of v onto span(basis), by exact Gram solve.

    Standard coordinate dot product; the basis must be independent (the Gram
    matrix is then invertible), otherwise this raises ValueError.
    """
    if not basis:
        return [Fraction(0)] * len(v)
    aug = [[vec_dot(bi, bj) for bj in basis] + [vec_dot(bi, v)]
           for bi in basis]
    if gauss_jordan(aug, len(basis), full_rank=True) is None:
        raise ValueError("dependent basis")
    out = [Fraction(0)] * len(v)
    for row, b in zip(aug, basis):
        c = row[-1]
        if c:
            for i, x in enumerate(b):
                out[i] += c * x
    return out
