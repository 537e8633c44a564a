"""Structure-constant (co)algebras and graded Lie structures.

An AlgebraSpec stores e_i e_j = sum_k c[i][j][k] e_k; a CoalgebraSpec stores
eta(e_k) = sum_{i,j} d[k][i][j] e_i (x) e_j.  Axiom checkers cover
commutativity, associativity, the Jordan identity (x^2 y) x = x^2 (y x),
their coalgebra duals, and the G-graded Lie axioms; a Z2-graded (super)
bracket is checked as the G = Z2 case with theta(a,b) = (-1)^{ab}.  A
graded bracket is read as a product table, so `mul_vec` extends both.

Every Jordan verdict is one exact multilinear evaluation.  With
G(v1,v2,v3,v4) = ((v1 v2) v3) v4 - (v1 v2)(v3 v4), the W subspace of V^(x4)
is spanned by generators indexed by a basis multiset {i<=j<=k} and a basis
element e_l: the sum over all orderings of (i,j,k) with e_l inserted at a
slot.  G is linear, so it vanishes on W iff it vanishes on each generator,
and no basis of W is ever formed.  The modes differ in the slots used,
because the source text's literal reading is contradicted by a computable
counterexample: pattern3 inserts at slot 2 only, giving the full
polarisation of the cubic identity G(x,x,y,x) = (x^2 y) x - x^2 (y x),
which over Q is equivalent to the Jordan identity; symmetrized sums each
generator over the four slots (holds in any Jordan algebra via linearized
power-associativity); full takes all four slots separately (fails already
for 2x2 symmetric matrices).  Checkers take the mode explicitly and never
guess.  The two summing modes evaluate both orders of a pair at once:
H(a,b,c,d) = G(a,b,c,d) + G(b,a,c,d) = ((Y c) d) - Y (c d), Y = ab + ba.
A pattern3 generator is the sum of H(q,r,l,s) over the splits {q,r | s} of
{i,j,k}; symmetrized adds H(q,r,s,l) (slot 3) and, as slots 0 and 1 pair
up, H(l,p0,p1,p2) over the orderings p.  That halves the terms; full
keeps G, as its generators put e_l in one slot alone.

G is the associator (v1 v2, v3, v4), so it is linear in v1 v2 and every
term comes from one table of basis associators A(t,c,d) = (e_t e_c) e_d -
e_t (e_c e_d), integer numerators over den^2 (`_Associators`): G(a,b,c,d)
= sum_t (e_a e_b)_t A(t,c,d), and H the same with e_a e_b + e_b e_a.  So
each W generator is a vector v of V^(x3), v[t,c,d] the summed (e_a e_b)_t
of its terms (`_w_vectors`), and G on it is sum v[t,c,d] A(t,c,d).  This
module is the one place that polarises the Jordan identity: the pattern3
vectors, the sums of (e_p e_q)(x)e_l(x)e_s over the orderings (p,q,s) of
{i,j,k}, are also the restricted braid family of
`constructions.jordan_r_restricted`, with their mirrors.

The table is the only place here where products of basis elements meet
for associativity and the W relations.  It computes each associator on
its first read, and it is kept on the structure (`_kept`, like the
`Fraction` views), so no check of one structure computes an associator
twice and a FAIL still stops early.  The table holds the structure's
store, never the structure: a structure and its table referring to each
other would leave every checked structure to the cyclic garbage collector
instead of freeing it when its last reference goes, and those collections
slow a run of many small checks.  `_associative` reads the table in
order up to the first nonzero entry, skipping those with e_t e_c = e_c e_d
= 0; when there is none, G is zero on all of V^(x4) and every W relation
holds with no generator evaluated: an associative commutative algebra is
Jordan (McCrimmon, A Taste of Jordan Algebras, 2004).

The coalgebra checks run on the dual algebra c[i][j][k] = d[k][i][j],
kept on the coalgebra (`_dual`): pairing column k of
(eta(x)I(x)I)(eta(x)I)eta - (I(x)I(x)eta)(eta(x)I)eta with w gives
coordinate k of G(w) there, so the dual W relation is the same
evaluation, and (co)commutativity and (co)associativity transpose likewise.

A spec stores only its nonzero constants, num[i][j] = {k: numerator of
t[i][j][k] over den}, t its dense table, read once (`exactla.common_den`),
and den the lcm of its reduced denominators.  Every check runs on them and
is homogeneous in the constants, so its verdict on the numerators is the
verdict over Q; files are written from them too, so nothing here reads the
`Fraction` views c/b/d, kept once read.  A float in a spec is a TypeError.
A spec is not changed after it is built, so what is kept on it stays
true.
"""
import itertools
from collections import namedtuple
from fractions import Fraction
from math import prod

from .exactla import (_pair, common_den, rat_from_str, rat_pair_from_str,
                      rat_to_str, row_space_basis, to_rat)


class PreconditionError(ValueError):
    """A checker's stated precondition does not hold for the input."""


class MissingUnitError(PreconditionError):
    """Construction requires a unital algebra."""


_Store = namedtuple("_Store", "num den")  # a table read, taken as it is


def _store(table, n, what, pair=_pair):
    """The _Store of a dense n^3 table (module doc), read by common_den."""
    def sized(seq):
        if not isinstance(seq, (list, tuple)) or len(seq) != n:
            raise ValueError("%s table must be %d^3" % (what, n))
        return seq

    if isinstance(table, _Store):
        return table
    flat, den = common_den((x for plane in sized(table)
                            for row in sized(plane) for x in sized(row)), pair)
    rows = [{k: x for k, x in enumerate(flat[r:r + n]) if x}
            for r in range(0, n ** 3, n)]
    return _Store([rows[i:i + n] for i in range(0, n * n, n)], den)


def _from_store(cls, basis, num, den, **attrs):
    """A cls on checked constants, nothing parsed."""
    S = cls.__new__(cls)
    vars(S).update(n=len(basis), basis=list(basis), num=num, den=den, **attrs)
    return S


def _kept(S, name, make):
    """vars(S)[name], made as make(S) on its first use and kept on S."""
    kept = vars(S)
    if name not in kept:
        kept[name] = make(S)
    return kept[name]


def _fractions(S):
    return [[[Fraction(row.get(k, 0), S.den) for k in range(S.n)]
             for row in plane] for plane in S.num]


def _view(name):
    """Read-only `Fraction` table of num/den, built on first read and kept."""
    return property(lambda S: _kept(S, name, _fractions))


def _to_int(x):
    if isinstance(x, float):  # as in to_rat
        raise TypeError("floats are not accepted as integers, got %r" % x)
    return int(x)


class AlgebraSpec:
    """Finite-dimensional algebra by structure constants; unit optional."""
    c = _view("c")

    def __init__(self, basis, c, unit=None):
        self.n, self.basis = len(basis), list(basis)
        self.num, self.den = _store(c, self.n, "structure")
        self.unit = [to_rat(x) for x in unit] if unit is not None else None
        if self.unit is not None and len(self.unit) != self.n:
            raise ValueError("unit dim mismatch")

    def __eq__(self, other):
        if not isinstance(other, AlgebraSpec):
            return NotImplemented
        return (self.basis == other.basis and self.num == other.num
                and self.den == other.den and self.unit == other.unit)


class CoalgebraSpec:
    """Finite-dimensional coalgebra: d[k][i][j] is the e_i(x)e_j part of eta(e_k)."""
    d = _view("d")

    def __init__(self, basis, d):
        self.n, self.basis = len(basis), list(basis)
        self.num, self.den = _store(d, self.n, "comultiplication")

    def __eq__(self, other):
        if not isinstance(other, CoalgebraSpec):
            return NotImplemented
        return (self.basis, self.num, self.den) == (other.basis, other.num, other.den)


class SuperLieSpec:
    """Z2-graded bracket by structure constants with a parity per basis element."""
    b = c = _view("b")

    def __init__(self, basis, grading, b):
        self.n, self.basis = len(basis), list(basis)
        self.grading = [_to_int(g) for g in grading]
        if len(self.grading) != self.n or any(g not in (0, 1) for g in self.grading):
            raise ValueError("grading must assign 0 or 1 per basis element")
        self.num, self.den = _store(b, self.n, "bracket")
        for i, j in itertools.product(range(self.n), repeat=2):
            par = (self.grading[i] + self.grading[j]) % 2
            if any(self.grading[k] != par for k in self.num[i][j]):
                raise ValueError("bracket [%s,%s] leaves the %d-graded part"
                                 % (self.basis[i], self.basis[j], par))

    def as_colorlie(self):
        """The same bracket over G = Z2 with theta(a,b) = (-1)^{ab}."""
        return _from_store(ColorLieSpec, self.basis, self.num, self.den,
                           moduli=[2], grading=[(g,) for g in self.grading],
                           theta={((a,), (b,)): Fraction(-1 if a and b else 1)
                                  for a in (0, 1) for b in (0, 1)})


class ColorLieSpec:
    """(G,theta)-graded bracket; G a product of cyclic groups given by moduli.
    theta: {(a, b): value} or its items; keys are reduced like the grading."""
    b = c = _view("b")

    def __init__(self, basis, moduli, grading, theta, b):
        self.n, self.basis = len(basis), list(basis)
        self.moduli = [_to_int(m) for m in moduli]
        if any(m < 1 for m in self.moduli):
            raise ValueError("group moduli must be at least 1, got %r"
                             % (self.moduli,))
        grading = list(grading)
        if len(grading) != self.n:
            raise ValueError("grading dim mismatch")
        self.grading = self._reduced(grading, "each grading entry")
        theta = list(theta.items() if isinstance(theta, dict) else theta)
        self.theta = {tuple(self._reduced(key, "each theta key")): to_rat(v)
                      for key, v in theta}
        if len(self.theta) < len(theta):
            raise ValueError("theta lists a pair of G x G twice")
        # distinct keys in G x G cover it iff there are |G|^2 (unbounded)
        order = prod(self.moduli)
        if len(self.theta) < order * order:
            raise ValueError("theta has %d entries; a group of order %d needs %d"
                             % (len(self.theta), order, order * order))
        if not all(self.theta.values()):
            raise ValueError("theta must be nonzero")
        self.num, self.den = _store(b, self.n, "bracket")
        for i, j in itertools.product(range(self.n), repeat=2):
            tgt = self.group_add(self.grading[i], self.grading[j])
            if any(self.grading[k] != tgt for k in self.num[i][j]):
                raise ValueError("bracket leaves L_{a+b}")

    def _reduced(self, elems, what):
        """elems modulo the moduli; each needs one component per modulus."""
        elems = [tuple(g) for g in elems]
        if any(len(g) != len(self.moduli) for g in elems):
            raise ValueError("%s needs %d components, one per group modulus"
                             % (what, len(self.moduli)))
        return [tuple(_to_int(x) % m for x, m in zip(g, self.moduli))
                for g in elems]

    def group_add(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))


def group_elements(moduli):
    return itertools.product(*(range(m) for m in moduli))


# basis: tuple of coordinate vectors in Q^(n^4)
WSubspace = namedtuple("WSubspace", "n mode basis")
PropReport = namedtuple("PropReport", "commutative associative unital jordan")
CoPropReport = namedtuple("CoPropReport", "cocommutative coassociative")
Thm21Verdict = namedtuple("Thm21Verdict", "jordan assoc equivalent")


class CenterReport(namedtuple("CenterReport", "even commutes witness")):
    """witness: basis index of a nonzero bracket, if any."""
    __slots__ = ()

    def __bool__(self):
        return self.even and self.commutes


ColorLieReport = namedtuple("ColorLieReport", "bicharacter antisym jacobi")


def basis_vec(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def _mul(A, u, v):
    """Product of sparse integer vectors {index: numerator} under A.num: the
    numerators of uv over one more factor of A.den, zeros left out."""
    out = {}
    get = out.get
    num = A.num
    for i, x in u.items():
        row = num[i]
        for j, y in v.items():
            xy = x * y
            for k, z in row[j].items():
                out[k] = get(k, 0) + xy * z
    return {k: x for k, x in out.items() if x}


def _add(acc, v, s=1):
    """acc += s v for sparse vectors, in place; zeros are kept."""
    get = acc.get
    for k, x in v.items():
        acc[k] = get(k, 0) + s * x
    return acc


def mul_vec(A, u, v):
    """Bilinear extension of the constants of A: the product of an algebra,
    or the bracket of a graded Lie structure."""
    if len(u) != A.n or len(v) != A.n:
        raise ValueError("dim mismatch")
    (un, ud), (vn, vd) = common_den(u), common_den(v)
    out = _mul(A, dict(enumerate(un)), dict(enumerate(vn)))
    den = ud * vd * A.den
    return [Fraction(out.get(k, 0), den) for k in range(A.n)]


def _unit_valid(A):
    if A.unit is None:
        return False
    un, ud = common_den(A.unit)
    u, one = {i: x for i, x in enumerate(un) if x}, ud * A.den
    return all(_mul(A, u, {i: 1}) == {i: one} == _mul(A, {i: 1}, u)
               for i in range(A.n))


def _commutative(A):
    num = A.num
    return all(num[i][j] == num[j][i]
               for i in range(A.n) for j in range(i + 1, A.n))


class _Associators(dict):
    """The basis associators of A, (t, c, d) -> (e_t e_c) e_d - e_t (e_c e_d)
    as numerators over A.den^2, {} if zero, each computed on its first read
    and kept.  It holds A's store, not A, as A keeps it (module doc)."""
    __slots__ = ("store",)

    def __init__(self, A):
        super().__init__()
        self.store = _Store(A.num, A.den)

    def __missing__(self, tcd):
        t, c, d = tcd
        S = self.store
        lhs, rhs = _mul(S, S.num[t][c], {d: 1}), _mul(S, {t: 1}, S.num[c][d])
        v = self[tcd] = _add(lhs, rhs, -1) if lhs != rhs else {}
        return v

    def vanish(self):
        """True iff every associator is zero, read in the order of (t, c, d)
        up to the first that is not; where e_t e_c = e_c e_d = 0 it is zero
        unread."""
        num = self.store.num
        for tcd in itertools.product(range(len(num)), repeat=3):
            t, c, d = tcd
            if (num[t][c] or num[c][d]) and self[tcd]:
                return False
        return True


def _associators(A):
    """The associator table of A, kept on A."""
    return _kept(A, "_associators", _Associators)


def _dual(C):
    """The dual algebra of C (dualize_co), kept on C."""
    return _kept(C, "_dual", dualize_co)


def _associative(A):
    return _associators(A).vanish()


def check_algebra_props(A):
    """Commutativity, associativity, declared-unit validity, Jordan property.

    jordan means: commutative and the identity (x^2 y) x = x^2 (y x) holds
    for all x, y, decided exactly by its full polarisation (the pattern3 W
    relation, see the module doc).  (A Jordan algebra is commutative by
    definition; an associative noncommutative algebra satisfies the bare
    identity but is not Jordan.)
    """
    comm, assoc = _commutative(A), _associative(A)
    jordan = comm and (assoc or _g_vanishes_on_w(A, "pattern3"))
    return PropReport(comm, assoc, _unit_valid(A), jordan)


def theorem21_instance(s, t):
    """Dim-2 commutative algebra with a^2 = b, b^2 = a, ab = ba = s a + t b."""
    c = [[[0, 1], [s, t]],
         [[s, t], [1, 0]]]
    return AlgebraSpec(["a", "b"], c)


def theorem21_verdict(s, t):
    rep = check_algebra_props(theorem21_instance(s, t))
    return Thm21Verdict(rep.jordan, rep.associative,
                        rep.jordan == rep.associative)


# Insertion slots of e_l per mode; the generators of one group are summed.
_W_SLOTS = {"pattern3": ((2,),), "full": ((0,), (1,), (2,), (3,)),
            "symmetrized": ((0, 1, 2, 3),)}


def _w_generators(n, mode):
    """Each generator of W as the list of basis 4-tuples it sums, in the
    order multiset {i<=j<=k}, inserted e_l, slot group."""
    try:
        groups = _W_SLOTS[mode]
    except KeyError:
        raise ValueError("unknown mode %r" % (mode,)) from None
    for idx3 in itertools.combinations_with_replacement(range(n), 3):
        perms = list(itertools.permutations(idx3))
        for l in range(n):
            for group in groups:
                yield [p[:pos] + (l,) + p[pos:] for pos in group for p in perms]


def w_subspace_basis(n, mode):
    """Row-reduced basis of W in V^(x4) for the given mode (see module doc).

    The checks never need it; it documents W's dimension for the tests."""
    gens = []
    for terms in _w_generators(n, mode):
        v = [Fraction(0)] * n ** 4
        for a, b, c, d in terms:
            v[((a * n + b) * n + c) * n + d] += 1
        gens.append(v)
    return WSubspace(n, mode, tuple(tuple(v) for v in row_space_basis(gens)))


def _w_pair_sums(n, mode):
    """The W generators of a paired mode, in the order of _w_generators,
    each as the list of 4-tuples t whose H(t) it sums (a tuple may repeat)."""
    for i, j, k in itertools.combinations_with_replacement(range(n), 3):
        splits = ((i, j, k), (i, k, j), (j, k, i))
        perms = list(itertools.permutations((i, j, k)))
        for l in range(n):
            terms = [(q, r, l, s) for q, r, s in splits]
            if mode == "symmetrized":
                terms += [(q, r, s, l) for q, r, s in splits]
                terms += [(l, p, q, s) for p, q, s in perms]
            yield terms


def _w_vectors(A, mode):
    """Each W generator of the mode, in the order of _w_generators, as a
    vector {(t, c, d): integer} of V^(x3): G on the generator is the sum of
    v[t, c, d] A(t, c, d), numerators over A.den^3 (module doc)."""
    num, r, paired = A.num, range(A.n), mode != "full"
    x = [[_add(dict(num[a][b]), num[b][a]) if paired else num[a][b] for b in r]
         for a in r]
    # the nonzero (t, y) of e_a e_b, or of e_a e_b + e_b e_a for H
    x = [[[(t, y) for t, y in xab.items() if y] for xab in row] for row in x]
    for terms in (_w_pair_sums(A.n, mode) if paired
                  else _w_generators(A.n, mode)):
        v = {}
        get = v.get
        for a, b, c, d in terms:
            for t, y in x[a][b]:
                k = t, c, d
                v[k] = get(k, 0) + y
        yield v


def _g_vanishes_on_w(A, mode):
    """True iff G = ((v1 v2) v3) v4 - (v1 v2)(v3 v4) is zero on every W
    generator, stopping at the first that is not.  Each generator is a
    vector of V^(x3) against A's associator table (module doc), so no
    products are formed here; when every associator is zero, so is G."""
    if mode not in _W_SLOTS:
        raise ValueError("unknown mode %r" % (mode,))
    table = _associators(A)
    if table.vanish():
        return True
    for v in _w_vectors(A, mode):
        acc = {}
        for tcd, y in v.items():
            a = table[tcd]
            if a:
                _add(acc, a, y)
        if any(acc.values()):
            return False
    return True


def jordan_w_check(A, mode):
    """True iff ((v1 v2) v3) v4 = (v1 v2)(v3 v4) on all of W."""
    if not _commutative(A):
        raise PreconditionError("jordan_w_check requires a commutative algebra")
    return _g_vanishes_on_w(A, mode)


def coalgebra_props(C):
    A = _dual(C)
    return CoPropReport(_commutative(A), _associative(A))


def jordan_co_check(C, mode):
    """Dual W relation: both four-fold comultiplications agree inside W.

    The difference (eta(x)I(x)I)(eta(x)I)eta - (I(x)I(x)eta)(eta(x)I)eta must
    be orthogonal to W, which is the W relation of the dual algebra (see the
    module doc).
    """
    A = _dual(C)
    if not _commutative(A):
        raise PreconditionError("jordan_co_check requires a cocommutative coalgebra")
    return _g_vanishes_on_w(A, mode)


def theorem22_instance(beta):
    """Dim-2 coalgebra: eta(e) = 1/b (e(x)f + f(x)e) + f(x)f and
    eta(f) = b (e(x)f + f(x)e) + e(x)e."""
    beta = to_rat(beta)
    if beta == 0:
        raise ValueError("beta must be nonzero")
    inv = 1 / beta
    d = [
        [[0, inv], [inv, 1]],          # eta(e)
        [[1, beta], [beta, 0]],        # eta(f)
    ]
    return CoalgebraSpec(["e", "f"], d)


def thm22_conditions(C, eps, zeta):
    """(eps(x)eps) . eta = zeta and (zeta(x)zeta) . eta = eps, exactly."""
    n = C.n
    if len(eps) != n or len(zeta) != n:
        raise ValueError("covectors must have %d entries, got %d and %d"
                         % (n, len(eps), len(zeta)))
    eps, zeta = [to_rat(x) for x in eps], [to_rat(x) for x in zeta]
    # independent iff some 2x2 minor of the rows (eps, zeta) is nonzero
    if all(eps[i] * zeta[j] == eps[j] * zeta[i]
           for i in range(n) for j in range(i + 1, n)):
        raise PreconditionError("covectors must be linearly independent")
    def square(v, k):  # den times the e_k part of (v(x)v) . eta
        return sum(x * v[i] * v[j] for i, row in enumerate(C.num[k])
                   for j, x in row.items())
    return all(square(eps, k) == zeta[k] * C.den
               and square(zeta, k) == eps[k] * C.den for k in range(n))


def _rotated(num):
    """num with the constant at (a, b, c) moved to (c, a, b), keys ascending."""
    out = [[{} for _ in num] for _ in num]
    for a, plane in enumerate(num):
        for b, row in enumerate(plane):
            for c, x in row.items():
                out[c][a][b] = x
    return out


def dualize(A):
    """Transpose to the dual basis: d[k][i][j] := c[i][j][k]."""
    return _from_store(CoalgebraSpec, A.basis, _rotated(A.num), A.den)


def dualize_co(C):
    """Inverse assignment: c[i][j][k] := d[k][i][j]."""
    return _from_store(AlgebraSpec, C.basis, _rotated(_rotated(C.num)), C.den,
                       unit=None)


def center_contains(L, z):
    """z central and even; falsy report carries the reason."""
    if len(z) != L.n:
        raise ValueError("dim mismatch")
    z = [to_rat(x) for x in z]
    even = all(not z[i] or L.grading[i] == 0 for i in range(L.n))
    witness = next((i for i in range(L.n)
                    if any(mul_vec(L, z, basis_vec(L.n, i)))), None)
    return CenterReport(even, witness is None, witness)


_KINDS = {AlgebraSpec: "algebra", CoalgebraSpec: "coalgebra",
          SuperLieSpec: "superlie", ColorLieSpec: "colorlie"}


def structure_to_json(obj):
    """JSON file form.  For algebras, superlie and colorlie structures
    table[i][j][k] is the e_k-coefficient of e_i e_j (resp. the bracket);
    for coalgebras table[k][i][j] is the e_i(x)e_j-coefficient of eta(e_k).
    Only the nonzero constants are formatted, from the store."""
    kind = next((k for cls, k in _KINDS.items() if isinstance(obj, cls)), None)
    if kind is None:
        raise TypeError("cannot serialize %r" % type(obj).__name__)
    n = obj.n
    out = {"kind": kind, "dim": n, "basis": list(obj.basis)}
    if isinstance(obj, ColorLieSpec):
        out.update(group=list(obj.moduli), grading=[list(g) for g in obj.grading],
                   theta=[[list(a), list(b), rat_to_str(v)]
                          for (a, b), v in sorted(obj.theta.items())])
    elif isinstance(obj, SuperLieSpec):
        out["grading"] = list(obj.grading)
    rows = [["0"] * n for _ in range(n * n)]
    for texts, row in zip(rows, itertools.chain.from_iterable(obj.num)):
        for k, x in row.items():
            texts[k] = rat_to_str(x, obj.den)
    out["table"] = [rows[i:i + n] for i in range(0, n * n, n)]
    if isinstance(obj, AlgebraSpec) and obj.unit is not None:
        out["unit"] = [rat_to_str(x) for x in obj.unit]
    return out


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _json_list(value, what, ints=False):
    """value if it is a JSON list (of integers, with ints), else ValueError."""
    if not isinstance(value, list) or (ints and not all(map(_is_int, value))):
        raise ValueError("%s must be a list%s, got %r"
                         % (what, " of integers" if ints else "", value))
    return value


def structure_from_json(obj):
    """The structure of a structure_to_json document.  Entries are strings
    (rat_pair_from_str); a table is read once, straight to its store."""
    if not isinstance(obj, dict):
        raise ValueError("a structure must be a JSON object")
    kind = obj.get("kind")
    basis = _json_list(obj["basis"], "basis")
    if not _is_int(obj["dim"]) or obj["dim"] != len(basis):
        raise ValueError("dim must be the integer length of basis, got %r"
                         % (obj["dim"],))
    if not basis:
        raise ValueError("dim must be at least 1")

    def table():
        return _store(obj["table"], len(basis), kind, rat_pair_from_str)
    if kind == "algebra":
        unit = obj.get("unit")
        if unit is not None:
            unit = [rat_from_str(x) for x in _json_list(unit, "unit")]
        return AlgebraSpec(basis, table(), unit)
    if kind == "coalgebra":
        return CoalgebraSpec(basis, table())
    if kind == "superlie":
        grading = _json_list(obj["grading"], "grading", ints=True)
        return SuperLieSpec(basis, grading, table())
    if kind == "colorlie":
        theta = []
        for entry in _json_list(obj["theta"], "theta"):
            if not isinstance(entry, list) or len(entry) != 3:
                raise ValueError("each theta entry must be a list [key, key, "
                                 "value], got %r" % (entry,))
            a, b, v = entry
            theta.append(([_json_list(g, "each theta key", ints=True)
                           for g in (a, b)], rat_from_str(v)))
        group = _json_list(obj["group"], "group", ints=True)
        grading = [_json_list(g, "each grading entry", ints=True)
                   for g in _json_list(obj["grading"], "grading")]
        return ColorLieSpec(basis, group, grading, theta, table())
    raise ValueError("unknown structure kind %r" % kind)


def validate_colorlie(S):
    """Bicharacter, theta-antisymmetry and theta-Jacobi of a colour-Lie
    bracket; a SuperLieSpec is checked as its Z2 form (`as_colorlie`)."""
    if isinstance(S, SuperLieSpec):
        S = S.as_colorlie()
    n = S.n
    elems = list(group_elements(S.moduli))
    th = S.theta
    bich = all(th[a, b] * th[b, a] == 1
               and th[S.group_add(a, b), c] == th[a, c] * th[b, c]
               and th[a, S.group_add(b, c)] == th[a, b] * th[a, c]
               for a, b, c in itertools.product(elems, repeat=3))
    # theta as integers over one denominator tden: both checks are linear
    # in theta, so scaling every term by tden leaves their verdicts
    tn, tden = common_den(th.values())
    tn = dict(zip(th, tn))
    num, g = S.num, S.grading
    antisym = all(_add({}, num[i][j], tden)
                  == _add({}, num[j][i], -tn[g[i], g[j]])
                  for i in range(n) for j in range(n))

    def jacobi_holds(i, j, k):
        a, b, c = g[i], g[j], g[k]
        acc = _add({}, _mul(S, {i: 1}, num[j][k]), tn[c, a])
        _add(acc, _mul(S, {k: 1}, num[i][j]), tn[b, c])
        return not any(_add(acc, _mul(S, {j: 1}, num[k][i]), tn[a, b]).values())

    jacobi = all(jacobi_holds(*ijk)
                 for ijk in itertools.product(range(n), repeat=3))
    return ColorLieReport(bich, antisym, jacobi)
