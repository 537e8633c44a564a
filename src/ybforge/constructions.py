"""Operator families on A(x)A and L(x)L, with predicted verdicts and inverses.

Every family here is produced by one bilinear template on basis columns,
`_formula_op`: some combination of ab(x)z, z(x)ab, the swap b(x)a and the
diagonal a(x)b, where ab is the product of an algebra (z its unit) or the
bracket of a graded Lie structure (z central, the last two terms signed by
the grading).
Verification goes through ybcore (exact identities by slot action).  A
parameter family is one record, `Family`.  The one-parameter and two-color
families are linear in their parameters, so they carry their coefficient
operators and are decided for all parameter values at once by exact
coefficient expansion (`yb_forms`): a FAIL's witness is the first grid
point where a coefficient form is nonzero, and the degree bound kept here
beside each family sets the `certified` flag.  Table-driven colored
families are decided by exhausting their color set.  Scalar parameters,
tables and grid points go through `exactla.to_rat`, so a float is a
TypeError.
"""
import functools
import itertools
from collections import namedtuple
from fractions import Fraction
from math import lcm, prod

from .exactla import common_den, mat_from_rows, to_rat
from .paramgrid import GridConfigError, GridResult
from .structures import (AlgebraSpec, MissingUnitError, PreconditionError,
                         _unit_valid, center_contains, check_algebra_props)
from .ybcore import (_braid_kills, _summed, braid_check,
                     composes_to_identity, from_entries, with_twist,
                     yb_forms, yb_vanishes)


class NotYangBaxterError(ValueError):
    """Parameters fall outside the cases that give a Yang-Baxter operator."""


class Family(namedtuple("Family", "tag n params evaluator color_set coefficients",
                        defaults=(None, None))):
    """A parameter family: evaluator(*point) -> LinOp2, also as fam(*point).

    color_set: the finite color set, when the family has one.
    coefficients: the operators over one denominator of which the family is
    a linear combination, when it is linear in its parameters: (U, V) with
    R(u,v) = u U + v V, or (P, Q) with S(t) = t P + Q.
    """
    __slots__ = ()

    def __call__(self, *point):
        return self.evaluator(*point)


# Per-variable degree bounds of the linear families' identities; bound + 1
# distinct grid points per variable certify.
#  - colored: R(u,v) entries are linear in u, v, p, q; triple products give
#    degree <= 3 per variable (u and p actually appear in at most two and
#    three factors; 3 is a safe common bound).
#  - oneparam: S(ti/tj) entries are linear in ti/tj and in q.  Clearing the
#    denominators t2*t3^2 from the triple products leaves polynomials of
#    degree <= 2 per ti per factor, <= 6 per side; q appears in three
#    factors, degree <= 3 <= 6.
# The verdicts come from exact coefficient expansion; the bounds only decide
# the `certified` flag, the CLI's default grid size and its refusal of
# undersized grids.
COLORED_BOUND = 3
ONEPARAM_BOUND = 6


PhiPair = namedtuple("PhiPair", "op inverse")
# display: the normalized matrix in the template's row layout; offending:
# (row, col) of the first non-template entry, with its value
Form8Result = namedtuple("Form8Result",
                         "matched q8 eta8 display offending value")
RestrictedReport = namedtuple("RestrictedReport",
                              "restricted full unit_adjoined family_size")


def _require_unit(A):
    if not _unit_valid(A):
        raise MissingUnitError("construction needs a unital algebra")
    return A.unit


def _formula_op(A, z, c_ab1, c_1ab, c_swap, c_diag, grading=None):
    """The operator on V(x)V whose column (i,j) is

        c_ab1 (e_i e_j)(x)z + c_1ab z(x)(e_i e_j)
            - s (c_swap e_j(x)e_i + c_diag e_i(x)e_j),

    with e_i e_j read from the integer view A.num/A.den (a product or a
    bracket table) and s = (-1)^{|e_i||e_j|} under a Z2 grading, else 1,
    as entries over one denominator."""
    (ab1, a1b, swap, diag), dc = common_den((c_ab1, c_1ab, c_swap, c_diag))
    zn, dz = common_den(z)
    zs = [(l, x) for l, x in enumerate(zn) if x]
    scale = A.den * dz
    terms = []
    for i in range(A.n):
        for j in range(A.n):
            for k, x in A.num[i][j].items():
                for l, y in zs:
                    terms += (((k, l, i, j), ab1 * x * y),
                              ((l, k, i, j), a1b * x * y))
            s = -scale if grading and grading[i] and grading[j] else scale
            if swap:
                terms.append(((j, i, i, j), -s * swap))
            if diag:
                terms.append(((i, j, i, j), -s * diag))
    return from_entries(A.n, _summed(terms), dc * scale)


def _common_den(ops):
    """The operators rescaled to one shared denominator, the lcm of theirs."""
    den = lcm(*(op.den for op in ops))
    return tuple(from_entries(op.n, {key: x * (den // op.den) for key, x
                                     in op.entries.items()}, den) for op in ops)


def _combine(ops, coeffs):
    """sum coeffs[i] * ops[i] for operators over one shared denominator."""
    ints, scale = common_den(coeffs)
    entries = _summed((key, c * x) for c, op in zip(ints, ops)
                      for key, x in op.entries.items())
    return from_entries(ops[0].n, entries, scale * ops[0].den)


def _grid_decide(description, names, grid, bound, certified, pencils, at):
    """GridResult of [R,S,T] = 0 over the three variables `names`.

    pencils: R, S and T as lists of (monomial, operator) pieces over one
    denominator each, or None.  With pencils, `yb_forms` expands the
    identity once: the verdict is that no form remains, and on a FAIL the
    witness is the first point of grid^3, in product order, where a form is
    nonzero at the values at(*point) of the pencils' variables.  Without
    them, at(*point) is (R, S, T) at the point, the witness is the first
    point where they fail and the verdict that none does; each distinct
    triple of operator objects is checked once.  A witness is a dict over
    names.
    """
    if pencils is not None:
        forms = yb_forms(*pencils)
        verdict = not forms
        # lo <= 0 <= hi, the range of each variable's exponents
        ranges = [(min(0, *e), max(0, *e))
                  for e in zip(*(m for form in forms for m in form))]

        def fails(point):
            return not _vanish_at(forms, ranges, at(*point))
    else:
        verdict, seen = None, {}   # holding each triple keeps the ids unique

        def fails(point):
            ops = at(*point)
            key = tuple(map(id, ops))
            if key not in seen:
                seen[key] = ops, yb_vanishes(*ops)
            return not seen[key][1]
    witness = None if verdict else next(
        (dict(zip(names, point)) for point in itertools.product(grid, repeat=3)
         if fails(point)), None)
    if verdict is None:
        verdict = witness is None
    cert = {name: (len(grid), bound) for name in names}
    return GridResult(description, verdict, certified and verdict, witness, cert)


def _vanish_at(forms, ranges, values):
    """True iff every form {exponents: integer} is zero at the rational
    values of its variables, a negative exponent only where the value is
    nonzero.  The forms are scaled to integers by prod num^-lo den^hi over
    the variables, (lo, hi) in ranges the range of their exponents."""
    powers = [{e: x.numerator ** (e - lo) * x.denominator ** (hi - e)
               for e in range(lo, hi + 1)}
              for x, (lo, hi) in zip(values, ranges)]
    return not any(sum(c * prod(p[e] for p, e in zip(powers, m))
                       for m, c in form.items()) for form in forms)


def r_algebra(A, alpha, beta, gamma):
    """R(a(x)b) = alpha ab(x)1 + beta 1(x)ab - gamma a(x)b."""
    unit = _require_unit(A)
    if A.n < 2:
        raise PreconditionError("needs dim >= 2")
    alpha, beta, gamma = to_rat(alpha), to_rat(beta), to_rat(gamma)
    return _formula_op(A, unit, alpha, beta, Fraction(0), gamma)


def thm32_predict(alpha, beta, gamma):
    """True iff (alpha, beta, gamma) falls in one of the three YB cases."""
    alpha, beta, gamma = to_rat(alpha), to_rat(beta), to_rat(gamma)
    return ((alpha == gamma != 0 and beta != 0)
            or (beta == gamma != 0 and alpha != 0)
            or (alpha == beta == 0 and gamma != 0))


def thm32_inverse(A, alpha, beta, gamma):
    """Formula inverse: swap and invert the scalars (0,0,gamma is its own case)."""
    alpha, beta, gamma = to_rat(alpha), to_rat(beta), to_rat(gamma)
    if not thm32_predict(alpha, beta, gamma):
        raise NotYangBaxterError(
            "(%s,%s,%s) is not in a Yang-Baxter case" % (alpha, beta, gamma))
    if alpha == beta == 0:
        return r_algebra(A, 0, 0, 1 / gamma)
    return r_algebra(A, 1 / beta, 1 / alpha, 1 / gamma)


def matrix_form8(A2, alpha, beta):
    """Match (R_{alpha,beta,alpha} . tau)/beta against the classification
    template [[1,0,0,0],[0,1,0,0],[0,1-q,q,0],[eta,0,0,-q]].

    The template is written in the row-vector convention, so the
    column-action matrix is transposed before matching.  On a match,
    q8 = alpha/beta and eta8 is the (4,1) display entry, required to be 0
    or 1.
    """
    alpha, beta = to_rat(alpha), to_rat(beta)
    if alpha == 0 or beta == 0:
        raise PreconditionError("alpha and beta must be nonzero")
    if A2.n != 2:
        raise PreconditionError("needs a dim-2 algebra")
    unit = _require_unit(A2)
    if unit != [Fraction(1), Fraction(0)]:
        raise PreconditionError("basis must be ordered (1, x) with 1 the unit")
    r_tau = with_twist(r_algebra(A2, alpha, beta, alpha))
    rows = [[0] * 4 for _ in range(4)]
    for (p, q, i, j), x in r_tau.entries.items():
        rows[2 * i + j][2 * p + q] = Fraction(x, r_tau.den) / beta
    display = mat_from_rows(rows)
    q8 = alpha / beta
    # (position, allowed values), in order: a mismatch reports the first
    template = [(pos, (0,)) for pos in ((0, 1), (0, 2), (0, 3), (1, 0), (1, 2),
                                        (1, 3), (2, 0), (2, 3), (3, 1), (3, 2))]
    template += [((0, 0), (1,)), ((1, 1), (1,)), ((2, 1), (1 - q8,)),
                 ((2, 2), (q8,)), ((3, 3), (-q8,)), ((3, 0), (0, 1))]
    for pos, allowed in template:
        value = display.entry(*pos)
        if value not in allowed:
            return Form8Result(False, None, None, display, pos, value)
    return Form8Result(True, q8, display.entry(3, 0), display, None, None)


def r_colored(A, p, q):
    """R(u,v)(a(x)b) = p(u-v) 1(x)ab + q(u-v) ab(x)1 - (pu-qv) b(x)a.

    R(u,v) = u U + v V, where U is R(1,0) and V is R(0,1); the family
    carries both as its coefficients and evaluates every (u, v) from them.
    """
    unit = _require_unit(A)
    if A.n < 2:
        raise PreconditionError("needs dim >= 2")
    p, q = to_rat(p), to_rat(q)
    coefficients = _common_den((_formula_op(A, unit, q, p, p, Fraction(0)),
                                _formula_op(A, unit, -q, -p, -q, Fraction(0))))

    def evaluate(u, v):
        return _combine(coefficients, (u, v))

    return Family("colored", A.n, {"p": p, "q": q}, evaluate,
                  coefficients=coefficients)


def colored_qybe_verify(F, grid):
    """Check R12(u,v) R13(u,w) R23(v,w) = R23(v,w) R13(u,w) R12(u,v).

    A family that carries its coefficients (R(u,v) = u U + v V, tag
    "colored") is decided for all colors at once by exact expansion in the
    monomials of (u, v, w); COLORED_BOUND + 1 distinct points certify.  On
    a FAIL the witness is the first failing point of grid^3, or none when no
    grid point fails (a grid too small to certify).

    Any other family is evaluated at every point of grid^3.  For
    table-driven families the grid must lie inside the declared color set,
    and the verdict is certified when it covers the whole set (exhaustion).
    """
    grid = [to_rat(g) for g in grid]
    if len(set(grid)) != len(grid):
        raise GridConfigError("grid points must be distinct")
    if F.color_set is not None:
        missing = [g for g in grid if g not in F.color_set]
        if missing:
            raise GridConfigError("grid point %s outside the color set" % missing[0])
        bound = len(F.color_set) - 1
        certified = set(grid) == set(F.color_set)
    else:
        bound = COLORED_BOUND
        certified = len(grid) >= bound + 1
    if F.coefficients is None:
        op = functools.cache(F.evaluator)
        pencils = None

        def at(u, v, w):
            return op(u, v), op(u, w), op(v, w)
    else:
        u, v = F.coefficients
        # monomials are exponents of (u, v, w), the values at a point
        pencils = ((((1, 0, 0), u), ((0, 1, 0), v)),     # R12(u, v)
                   (((1, 0, 0), u), ((0, 0, 1), v)),     # R13(u, w)
                   (((0, 1, 0), u), ((0, 0, 1), v)))     # R23(v, w)

        def at(*point):
            return point
    return _grid_decide("colored QYBE for %s family" % F.tag, ("u", "v", "w"),
                        grid, bound, certified, pencils, at)


def s_oneparam(A, q):
    """S(t)(a(x)b) = (t-1) 1(x)ab + q(t-1) ab(x)1 - (t-q) b(x)a, t nonzero.

    S(t) = t P + Q with P = (1 (x) ab + q ab (x) 1 - b (x) a) and
    Q = -(1 (x) ab + q ab (x) 1 - q b (x) a); the family carries both.
    """
    unit = _require_unit(A)
    if A.n < 2:
        raise PreconditionError("needs dim >= 2")
    q = to_rat(q)
    coefficients = _common_den((_formula_op(A, unit, q, 1, 1, 0),
                                _formula_op(A, unit, -q, -1, -q, 0)))

    def evaluate(t):
        t = to_rat(t)
        if t == 0:
            raise ValueError("t must be nonzero")
        return _combine(coefficients, (t, 1))

    return Family("oneparam", A.n, {"q": q}, evaluate,
                  coefficients=coefficients)


def oneparam_verify(A, q, tgrid):
    """Check S12(t1/t2) S13(t1/t3) S23(t2/t3) = S23(t2/t3) S13(t1/t3) S12(t1/t2).

    Additive spectral parameters are realized multiplicatively (t = e^lambda,
    differences become ratios), so the grid must avoid 0.  The verdict comes
    from exact expansion: with x = t1/t2 and y = t2/t3, S12 = x P + Q,
    S13 = xy P + Q and S23 = y P + Q, and the identity holds for all nonzero
    t iff every coefficient of the monomials x^a y^b vanishes;
    ONEPARAM_BOUND + 1 distinct nonzero points certify.  On a FAIL the
    witness is the first failing point of tgrid^3, or none when no grid
    point fails (a grid too small to certify).
    """
    fam = s_oneparam(A, q)
    tgrid = [to_rat(t) for t in tgrid]
    if len(set(tgrid)) != len(tgrid):
        raise GridConfigError("t-grid points must be distinct")
    if any(t == 0 for t in tgrid):
        raise GridConfigError("t-grid points must be nonzero")
    p_op, q_op = fam.coefficients
    # monomials are exponents of (x, y)
    pencils = ((((1, 0), p_op), ((0, 0), q_op)),        # S12(x)
               (((1, 1), p_op), ((0, 0), q_op)),        # S13(xy)
               (((0, 1), p_op), ((0, 0), q_op)))        # S23(y)
    return _grid_decide("one-parameter YBE at q=%s" % q, ("t1", "t2", "t3"),
                        tgrid, ONEPARAM_BOUND,
                        len(tgrid) >= ONEPARAM_BOUND + 1, pencils,
                        lambda t1, t2, t3: (t1 / t2, t2 / t3))


def wxz_thm38(A, lam, mu):
    """W = ab(x)1 + lam 1(x)ab - b(x)a; X with both coefficients 1;
    Z = mu ab(x)1 + 1(x)ab - b(x)a."""
    unit = _require_unit(A)
    lam, mu = to_rat(lam), to_rat(mu)
    return (_formula_op(A, unit, 1, lam, 1, 0), _formula_op(A, unit, 1, 1, 1, 0),
            _formula_op(A, unit, mu, 1, 1, 0))


def wxz_from_colored(F, s, t):
    """W = R(s,s), X = R(s,t), Z = R(t,t)."""
    s, t = to_rat(s), to_rat(t)
    if F.color_set is not None:
        for c in (s, t):
            if c not in F.color_set:
                raise GridConfigError("%s outside the color set" % c)
    return F.evaluator(s, s), F.evaluator(s, t), F.evaluator(t, t)


def _require_central(L, z):
    """z as rationals, once it is checked to be even and central in L."""
    rep = center_contains(L, z)
    if not rep:
        raise PreconditionError(
            "z must be even and central (even=%s, commutes=%s)"
            % (rep.even, rep.commutes))
    return [to_rat(x) for x in z]


def phi_super(L, z, alpha):
    """phi(x(x)y) = alpha [x,y](x)z + (-1)^{|x||y|} y(x)x, with its formula
    inverse alpha z(x)[x,y] + (-1)^{|x||y|} y(x)x.  Their product is checked
    to be the identity by slot action; for square matrices that makes the
    formula a two-sided inverse, so a returned pair proves phi invertible."""
    z = _require_central(L, z)
    alpha = to_rat(alpha)
    # the template subtracts its swap term, so c_swap = -1 adds y(x)x
    op = _formula_op(L, z, alpha, 0, -1, 0, L.grading)
    inv = _formula_op(L, z, 0, alpha, -1, 0, L.grading)
    if not composes_to_identity(op, inv):
        raise RuntimeError("formula inverse failed")
    return PhiPair(op, inv)


def r_super_colored(L, z, alpha_table, beta_table, colors):
    """R(u,v)(a(x)b) = alpha(u) [a,b](x)z + beta(u) (-1)^{|a||b|} a(x)b.

    As printed, the operator depends on u only; reports flag the asymmetry.
    alpha and beta are finite lookup tables, total on the color set.
    """
    z = _require_central(L, z)
    colors = tuple(to_rat(c) for c in colors)
    atab = {to_rat(k): to_rat(v) for k, v in alpha_table.items()}
    btab = {to_rat(k): to_rat(v) for k, v in beta_table.items()}
    for c in colors:
        if c not in atab or c not in btab:
            raise ValueError("tables must be total on the color set; missing %s" % c)

    @functools.cache
    def operator(u):
        # KeyError on colors outside the tables
        return _formula_op(L, z, atab[u], 0, 0, -btab[u], L.grading)

    def evaluate(u, v):
        return operator(to_rat(u))

    return Family("superColored", L.n, {"alpha": atab, "beta": btab},
                  evaluate, colors)


def _adjoin_unit(J):
    """J+ = k.1 (+) J: formal unit prepended at index 0."""
    e = [[int(k == i) for k in range(J.n + 1)] for i in range(J.n + 1)]
    c = [e] + [[e[i + 1]] + [[0] + row for row in plane]
               for i, plane in enumerate(J.c)]
    return AlgebraSpec(["1"] + list(J.basis), c, unit=e[0])


def jordan_r_restricted(J, alpha, beta, gamma):
    """Braid equation for R_{alpha,beta,gamma} over a Jordan algebra,
    restricted to the span of {a^2(x)b(x)a, a(x)b(x)a^2 : a,b in J}.

    J must satisfy the Jordan property.  When J lacks a unit a formal one is
    adjoined (the formula references 1); the spanning family still ranges
    over elements of J only.  Both members are cubic in a and linear in b,
    so over Q they span the same subspace as their polarisations: for each
    multiset {i<=j<=k} of J's basis and each basis element b, the sums of
    (e_p e_q)(x)b(x)e_s and e_s(x)b(x)(e_p e_q) over the orderings (p,q,s)
    of (i,j,k).  That gives C(n+2,3)*n*2 vectors, kept as sparse integer
    numerators over jp.den.
    """
    props = check_algebra_props(J)
    if not props.jordan:
        raise PreconditionError("J must be a Jordan algebra")
    if props.unital:
        jp, offset = J, 0
    else:
        jp, offset = _adjoin_unit(J), 1
    r = r_algebra(jp, alpha, beta, gamma)
    full = braid_check(r)
    m = jp.n
    own = range(offset, m)
    family = []
    for idx3 in itertools.combinations_with_replacement(own, 3):
        perms = list(itertools.permutations(idx3))
        for b in own:
            sq_b_a, a_b_sq = {}, {}
            for p, q, s in perms:
                for k, x in jp.num[p][q].items():
                    i, j = (k * m + b) * m + s, (s * m + b) * m + k
                    sq_b_a[i] = sq_b_a.get(i, 0) + x
                    a_b_sq[j] = a_b_sq.get(j, 0) + x
            family += [sq_b_a, a_b_sq]
    restricted = _braid_kills(r, family)
    return RestrictedReport(restricted, full, offset == 1, len(family))
