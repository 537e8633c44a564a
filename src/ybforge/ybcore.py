"""Operators on V(x)V, their action on tensor slots of V(x)3, and the
braid-type checks.

Index convention everywhere: e_i (x) e_j sits at coordinate i*n + j, and
e_i (x) e_j (x) e_k at i*n^2 + j*n + k, row-major and zero-based.

An operator R on V(x)V (`LinOp2`) is its nonzero entries: `entries` maps
(p, q, i, j) to the integer numerator of e_p(x)e_q in R(e_i(x)e_j), over one
positive `den`.  Builders write them through `from_entries` and checks read
them; `.mat` is a dense view.  Equality is by value, over any denominators.
`invertible` is a rank test: one elimination of R's rows, no inverse built.

Every identity on V(x)3 is decided by slot action through one kernel,
`_push`: it pushes sparse vectors of integer numerators through a word's
factors, each a slot view, so R12 = R(x)I, R23 = I(x)R and
R13 = (I(x)tau)(R(x)I)(I(x)tau) are never formed as n^3 x n^3 matrices.
Each check pushes basis vectors e_c (the restricted braid check: its
spanning vectors, scaled to integers) through both words of an identity,
which hold the same factors, so comparing numerators is exact.

One rule decides and witnesses every identity: `_first_difference` stops
at the first start where the two words differ, and a verdict holds when
there is none.  A witness (`_witness`) is the row-major first mismatch of
the dense difference (smallest output index, then smallest input column);
as every column below the first difference c0 agrees, it scans c0 and the
columns above it, each pushed once.

A factor polynomial in parameters is packed into one operator by Kronecker
substitution (`_packed`): its numerators are sum_m num_m * 2^(B e(m)), where
e(m) reads the exponents, shifted by the factor's least exponent of each
variable, as the digits of one integer in base W = 1 + the largest total
degree of one variable over the three factors, so the digits of a product
never carry.  Every coefficient of either word is at most C in absolute
value, C the product over the factors of the largest column l1 norm of
sum_m |num_m| (a slot lift keeps column norms), and B = bit_length(2C), so
C < 2^(B-1): a word's packed numerator is the one integer whose balanced
base-2^B digits, each in [-2^(B-1), 2^(B-1)), are its coefficients, and the
packed words agree iff every coefficient does.  A coefficient of their
difference can reach 2C >= 2^(B-1), past one balanced digit, so `yb_forms`
reads each word's numerator on its own and subtracts the digits.

The braid equation and the QYBE of one operator R (`braid_check`,
`braid_witness`, `qybe_check`, `qybe_witness`) read fewer columns.  If a
permutation g of V's basis has (g(x)g) R = R (g(x)g), then g(x)g also
commutes with tau, hence g(x)g(x)g commutes with R12, R23 and R13, and the
difference D of the two words has D(g e_c) = g D(e_c): D vanishes on an
orbit of columns once it vanishes on one of them.  Such permutations are
found by colour refinement and a backtracking search with a node budget,
each checked on every nonzero entry of R, and kept on the operator.
`_columns` yields the e_0 slab (columns c < n^2), then the least column of
each orbit past the slab; the search runs only when the comparison reads
past the slab, so a difference in the slab costs none.  A column below one
of them lies in the slab or in an earlier orbit, so the witness rule holds.
`yb_vanishes`, `wxz_check` and `yb_forms` read every column;
`_braid_kills` reads its vectors.
"""
from collections import namedtuple
from itertools import chain, compress, product, repeat, tee
from math import gcd, lcm
from operator import ne

from .exactla import Mat, Rat, common_den, gauss_jordan, rat_pair_from_str


class LinOp2:
    """Linear operator on V(x)V as its nonzero entries, read from a Mat."""

    def __init__(self, n, mat):
        if mat.rows != n * n or mat.cols != n * n:
            raise ValueError("expected %d x %d matrix" % (n * n, n * n))
        self._hold(n, {key: x for key, x in zip(product(range(n), repeat=4),
                                                mat.num) if x}, mat.den)

    def _hold(self, n, entries, den):
        self.n, self.entries, self.den = n, entries, den
        self._views, self._perms = {}, None
        return self

    @property
    def mat(self):
        """The dense view: the numerators of entries over den, unreduced."""
        n, nn = self.n, self.n * self.n
        num = [0] * (nn * nn)
        for (p, q, i, j), x in self.entries.items():
            num[((p * n + q) * n + i) * n + j] = x
        return Mat(nn, nn, num, self.den, _reduced=True)

    def __eq__(self, other):
        if not isinstance(other, LinOp2):
            return NotImplemented
        a, b = self.entries, other.entries
        return self.n == other.n and a.keys() == b.keys() and all(
            x * other.den == b[key] * self.den for key, x in a.items())

    def __repr__(self):
        return "LinOp2(n=%d)" % self.n


def from_entries(n, entries, den):
    """The LinOp2 on V(x)V, dim V = n, of the nonzero entries over den > 0."""
    return LinOp2.__new__(LinOp2)._hold(n, entries, den)


def _summed(items):
    """{key: sum of its values} over (key, value) items, without zeros."""
    out = {}
    get = out.get
    for key, x in items:
        out[key] = get(key, 0) + x
    return {key: x for key, x in out.items() if x}


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
    only relabels the keys of R's entries."""
    entries = {((q, p, i, j) if left else (p, q, j, i)): x
               for (p, q, i, j), x in r.entries.items()}
    out = from_entries(r.n, entries, r.den)
    if r._perms is not None:
        # tau commutes with every g(x)g, so R's permutations are out's too
        out._perms = [g for g in r._perms
                      if _keeps(g, entries.items(), entries)]
    return out


def _slot_view(r, pos):
    # Sparse view of r on slot pair pos, built once per operator from its
    # entries grouped by column: view[idx] = (rest, column) for the basis
    # index idx of V(x)3, where column lists (offset, numerator) over the
    # column of r that idx feeds, and offset + rest is the output index.
    view = r._views.get(pos)
    if view is None:
        n, nn = r.n, r.n * r.n
        if pos not in (12, 13, 23):
            raise ValueError("pos must be 12, 13 or 23")
        sp, sq = (nn, n) if pos == 12 else (n, 1) if pos == 23 else (nn, 1)
        cols = [[] for _ in range(nn)]
        for (p, q, i, j), m in r.entries.items():
            cols[i * n + j].append((p * sp + q * sq, m))
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
    """The slot-action kernel: yields the numerators of word on each start,
    as a sparse vector without zero entries.  word lists the slot views of
    its factors in the order they apply.  A start is a sparse vector, or a
    basis index c, which begins as e_c's placed view column.  Zero entries
    are dropped only at the end, so two words compare by ==.
    """
    first, later = word[0], word[1:]
    for start in starts:
        if type(start) is int:
            rest, column = first[start]
            vec = {offset + rest: m for offset, m in column}
            factors = later
        else:
            vec, factors = start, word
        for view in factors:
            out = {}
            get = out.get
            for idx, x in vec.items():
                rest, column = view[idx]
                for offset, m in column:
                    o = offset + rest
                    out[o] = get(o, 0) + x * m
            vec = out
        if 0 in vec.values():
            vec = {o: x for o, x in vec.items() if x}
        yield vec


def lift(r, pos):
    """Lift a LinOp2 to slots (1,2), (1,3) or (2,3) of V^(x3) as a dense
    matrix, each basis column pushed through `_push`."""
    n3 = r.n ** 3
    num = [0] * (n3 * n3)
    for c, out in enumerate(_push([_slot_view(r, pos)], range(n3))):
        for row, x in out.items():
            num[row * n3 + c] = x
    return LinOp3(r.n, Mat(n3, n3, num, r.den))


def _word(*factors):
    """The kernel's word for the factors (op, pos), written left to right."""
    return [_slot_view(op, pos) for op, pos in reversed(factors)]


def _first_difference(lhs, rhs, starts):
    """(start, lhs vector, rhs vector) at the first start where the two
    words differ, or None.  Both words read the one sequence of starts, which
    is never read past the start being compared."""
    each, left, right = tee(starts, 3)
    for start, a, b in zip(each, _push(lhs, left), _push(rhs, right)):
        if a != b:
            return start, a, b
    return None


def _witness(lhs, rhs, cols, n):
    """((i,j,k) in, (i,j,k) out) at the row-major first entry where the two
    words differ (smallest output index, then smallest input column), or
    None.  cols increase, and a column below one of them agrees once the
    columns of cols below it do (`_columns`).  So every column below the
    first difference c0 in cols agrees, and the scan goes on from c0's
    vectors over each column above it: a column is pushed at most once."""
    first = _first_difference(lhs, rhs, cols)
    if first is None:
        return None
    later = range(first[0] + 1, n ** 3)
    best = None
    for c, a, b in chain((first,), zip(later, _push(lhs, later),
                                       _push(rhs, later))):
        if a != b:
            row = min(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            if best is None or row < best[0]:
                best = (row, c)
                if row == 0:
                    break
    return tuple((flat // (n * n), flat // n % n, flat % n)
                 for flat in (best[1], best[0]))


# --- symmetry of one operator ----------------------------------------------

_SEARCH_NODES = 20000   # backtracking nodes per operator


def _keeps(g, items, entries):
    """True iff g takes each ((p, q, i, j), numerator) of items to an entry
    of R with the same numerator, R given by its nonzero entries.  Over all
    of them, that is (g(x)g) R = R (g(x)g)."""
    get = entries.get
    return all(get((g[p], g[q], g[i], g[j])) == x
               for (p, q, i, j), x in items)


def _colours(n, entries):
    """Colour refinement: the stable colouring of V's basis in which each
    round colours a point by its colour and the multiset of (slot, numerator,
    colours of the indices) over the entries of R it occurs in.  A
    permutation that commutes with R keeps every colour."""
    colour, count = [0] * n, 1
    while True:
        keys = [(x, colour[p], colour[q], colour[i], colour[j])
                for (p, q, i, j), x in entries.items()]
        rank = {key: 4 * k for k, key in enumerate(sorted(set(keys)))}
        seen = [[] for _ in range(n)]
        for (p, q, i, j), key in zip(entries, keys):
            k = rank[key]
            seen[p].append(k)
            seen[q].append(k + 1)
            seen[i].append(k + 2)
            seen[j].append(k + 3)
        sig = [(colour[a], tuple(sorted(seen[a]))) for a in range(n)]
        ranks = sorted(set(sig))
        if len(ranks) == count:
            return colour
        rank = {s: k for k, s in enumerate(ranks)}
        colour, count = [rank[s] for s in sig], len(ranks)


def _orbit(a, gens):
    # the points that products of gens take a to
    orbit, stack = {a}, [a]
    while stack:
        b = stack.pop()
        for g in gens:
            if g[b] not in orbit:
                orbit.add(g[b])
                stack.append(g[b])
    return orbit


def _automorphisms(n, entries):
    """Verified permutations g of V's basis with (g(x)g) R = R (g(x)g),
    which generate every such permutation unless the node budget runs out.

    Points are taken cell by cell of the stable colouring.  For each level
    k, deepest first, the search fixes the first k points and tries to send
    the next one to each point of its cell outside its orbit under the
    permutations found so far (a strong generating set, as in Schreier-Sims).
    Each assignment is pruned on the entries whose indices are all assigned;
    a complete one is kept only after every entry is checked.  When the
    budget runs out, the permutations found so far are kept: their orbits
    are exact, only coarser."""
    colour = _colours(n, entries)
    cells = {}
    for a in range(n):
        cells.setdefault(colour[a], []).append(a)
    base = sorted(range(n),
                  key=lambda a: (len(cells[colour[a]]), colour[a], a))
    place = [0] * n
    for k, a in enumerate(base):
        place[a] = k
    due = [[] for _ in range(n)]    # entries whose last index is base[k]
    for idx, x in entries.items():
        p, q, i, j = idx
        due[max(place[p], place[q], place[i], place[j])].append((idx, x))
    nodes = 0

    def extend(g, used, k):
        nonlocal nodes
        if k == n:
            return list(g)
        a = base[k]
        for b in cells[colour[a]]:
            if b in used:
                continue
            nodes += 1
            if nodes > _SEARCH_NODES:
                return None
            g[a] = b
            if _keeps(g, due[k], entries):
                used.add(b)
                found = extend(g, used, k + 1)
                used.discard(b)
                if found is not None:
                    return found
        return None

    gens = []
    for k in reversed(range(n)):
        a = base[k]
        orbit = _orbit(a, gens)
        for b in cells[colour[a]]:
            if b in orbit or place[b] < k:
                continue
            g = list(range(n))
            g[a] = b
            found = (extend(g, set(base[:k]) | {b}, k + 1)
                     if _keeps(g, due[k], entries) else None)
            if nodes > _SEARCH_NODES:
                return gens
            if found is not None and _keeps(found, entries.items(), entries):
                gens.append(found)
                orbit = _orbit(a, gens)
    return gens


def _symmetry(r):
    """r's verified permutations, found once and kept on the operator."""
    if r._perms is None:
        r._perms = _automorphisms(r.n, r.entries)
    return r._perms


def _late_columns(r):
    """The basis columns e_c, c >= n^2, that are the least of their orbit
    under r's permutations acting as g(x)g(x)g on V(x)3, in order."""
    n = r.n
    n2, n3 = n * n, n ** 3
    gens = [[(a * n + b) * n + c for a in g for b in g for c in g]
            for g in _symmetry(r)]
    if not gens:
        return range(n2, n3)
    seen, late = set(), []
    for c in range(n3):
        if c not in seen:
            seen |= _orbit(c, gens)
            if c >= n2:
                late.append(c)
    return late


def _columns(r):
    """The columns an identity in r alone reads, in order: the e_0 slab
    (c < n^2), then `_late_columns`, whose search runs only when a consumer
    reads past the slab."""
    yield from range(r.n ** 2)
    yield from _late_columns(r)


def _braid_words(r):
    return _word((r, 12), (r, 23), (r, 12)), _word((r, 23), (r, 12), (r, 23))


def _yb_words(r, s, t):
    if not (r.n == s.n == t.n):
        raise ValueError("dim mismatch")
    return _word((r, 12), (s, 13), (t, 23)), _word((t, 23), (s, 13), (r, 12))


def braid_check(r):
    return _first_difference(*_braid_words(r), _columns(r)) is None


def braid_witness(r):
    """None when the braid equation holds; else ((i,j,k) in, (i,j,k) out)."""
    return _witness(*_braid_words(r), _columns(r), r.n)


def qybe_check(r):
    return _first_difference(*_yb_words(r, r, r), _columns(r)) is None


def qybe_witness(r):
    """None when the QYBE holds; else ((i,j,k) in, (i,j,k) out)."""
    return _witness(*_yb_words(r, r, r), _columns(r), r.n)


def is_yb_operator(r):
    """Braid + invertibility; yb = both (the definition of a YB operator)."""
    braid, full_rank = braid_check(r), invertible(r)
    return YbReport(braid, full_rank, braid and full_rank)


def invertible(r):
    """True iff R has full rank (`exactla.gauss_jordan` on its rows)."""
    n, nn = r.n, r.n * r.n
    rows = [[Rat(0)] * nn for _ in range(nn)]
    for (p, q, i, j), x in r.entries.items():
        rows[p * n + q][i * n + j] = Rat(x)
    return gauss_jordan(rows, nn, full_rank=True) is not None


def composes_to_identity(a, b):
    """True iff a b = I on V(x)V: the word (b, a) on slot pair 12 takes each
    e_c(x)e_0 to itself, over the denominator a.den * b.den."""
    starts, den = range(0, a.n ** 3, a.n), a.den * b.den
    return all(out == {c: den} for c, out
               in zip(starts, _push(_word((a, 12), (b, 12)), starts)))


def braid_qybe_equiv(r, braid=None):
    """Metamorphic identity: braid(R) <=> QYBE(R tau) <=> QYBE(tau R), with
    braid the braid verdict of R when the caller already has it."""
    b = braid_check(r) if braid is None else braid
    return (b == qybe_check(with_twist(r))
            == qybe_check(with_twist(r, left=True)))


def yb_vanishes(r, s, t):
    """True iff [R,S,T] = 0, stopping at the first column that differs."""
    return _first_difference(*_yb_words(r, s, t), range(r.n ** 3)) is None


def _packed(r, s, t):
    """(lhs, rhs, width, places) for pencil factors R, S and T (see
    `yb_forms`): the two words of [R,S,T], each factor packed into one
    operator with digits of `width` bits, and for each factor the
    (digit, exponents) of its pieces."""
    factors = (r, s, t)
    for pieces in factors:
        if len({op.den for _m, op in pieces}) != 1:
            raise ValueError("pieces of a factor must share one denominator")
        if len({m for m, _op in pieces}) != len(pieces):
            raise ValueError("monomials of a factor must be distinct")
    n = r[0][1].n
    if any(op.n != n for pieces in factors for _m, op in pieces):
        raise ValueError("dim mismatch")
    nvars = max(len(m) for pieces in factors for m, _op in pieces)
    monos = [[tuple(m) + (0,) * (nvars - len(m)) for m, _op in pieces]
             for pieces in factors]
    ranges = [[(min(e), max(e)) for e in zip(*ms)] for ms in monos]
    base = 1 + max((sum(hi - lo for lo, hi in var) for var in zip(*ranges)),
                   default=0)
    bound = 1
    for pieces in factors:
        norms = _summed(((i, j), abs(x)) for _m, op in pieces
                        for (_p, _q, i, j), x in op.entries.items())
        bound *= max(norms.values(), default=0)
    width = (2 * bound).bit_length()
    # each piece's digit: its exponents, shifted by the factor's least
    # ones, as the digits of one integer in base `base`
    places = [[(sum((e - lo) * base ** v for v, (e, (lo, _hi))
                    in enumerate(zip(m, var))), m) for m in ms]
              for ms, var in zip(monos, ranges)]
    packed = []
    for pieces, place, pos in zip(factors, places, (12, 13, 23)):
        entries = _summed((key, x << width * k) for (k, _m), (_e, op) in
                          zip(place, pieces) for key, x in op.entries.items())
        packed.append(_slot_view(from_entries(n, entries, pieces[0][1].den),
                                 pos))
    return packed[::-1], packed, width, places


def yb_forms(r, s, t):
    """A row-reduced basis of the coefficient forms of [R,S,T], each form
    {exponents: nonzero integer}: [R,S,T] vanishes at a point of the
    parameters iff every form does, and for every value iff the list is
    empty.

    R, S and T are Laurent polynomials in the parameters, each a sequence
    of (monomial, LinOp2) pieces with distinct monomials, tuples of
    exponents.  The pieces of one factor must share one denominator, so
    that the numerators of all words agree in denominator.

    One packed pass (module docstring) reads every column, the comparison
    resuming after each one where the words differ.  Each distinct pair of
    differing packed numerators is read back word by word in balanced
    digits, and the digits are subtracted; the forms, each divided by its
    content, are reduced by `exactla.gauss_jordan` with the monomials in
    decreasing order."""
    lhs, rhs, width, places = _packed(r, s, t)
    n3, c, pairs = r[0][1].n ** 3, 0, set()
    while (first := _first_difference(lhs, rhs, range(c, n3))) is not None:
        c, a, b = first
        for k in a.keys() | b.keys():
            if a.get(k) != b.get(k):
                pairs.add((a.get(k, 0), b.get(k, 0)))
        c += 1
    if not pairs:
        return []
    # the digits a word's numerator can hold, in increasing order, as
    # (exponents, bits between the digit and the one below it)
    digits = sorted({(i + j + k, tuple(map(sum, zip(mi, mj, mk))))
                     for (i, mi), (j, mj), (k, mk) in product(*places)})
    steps = [(m, width * (k - k0 - 1))
             for (k0, _m), (k, m) in zip([(-1, None)] + digits, digits)]
    half, mask, forms = 1 << (width - 1), (1 << width) - 1, set()
    for x, y in pairs:
        form = {}
        for m, skip in steps:
            # the balanced digit of x is ((x + half) & mask) - half, and
            # (x + half) >> width is what x leaves above it
            x, y = (x >> skip) + half, (y >> skip) + half
            if (d := (x & mask) - (y & mask)):
                form[m] = d
            x, y = x >> width, y >> width
        g = gcd(*form.values()) * (1 if form[max(form)] > 0 else -1)
        forms.add(tuple((m, d // g) for m, d in form.items()))
    cols = sorted({m for form in forms for m, _d in form}, reverse=True)
    rows = [[Rat(form.get(m, 0)) for m in cols] for form in map(dict, forms)]
    basis = rows[:len(gauss_jordan(rows, len(cols)))]
    return [{m: x for m, x in zip(cols, common_den(row)[0]) if x}
            for row in basis]


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
    return _first_difference(*_braid_words(r), vecs) is None


def linop2_to_json(r):
    """Each entry in rat_to_str's form; only the nonzero ones are formatted."""
    n, den, nn = r.n, r.den, r.n * r.n
    rows = [["0"] * nn for _ in range(nn)]
    for (p, q, i, j), x in r.entries.items():
        g = gcd(x, den)
        rows[p * n + q][i * n + j] = (str(x // g) if g == den
                                      else "%d/%d" % (x // g, den // g))
    return {"kind": "linop2", "n": n, "mat": rows}


def linop2_from_json(obj):
    """Entries in any form rat_from_str accepts; only those other than the
    string "0", found in one scan, are parsed, and the nonzero ones kept."""
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
    keep = list(map(ne, flat, repeat("0")))
    pq = [rat_pair_from_str(x) for x in compress(flat, keep)]
    den = lcm(*[q for p, q in pq if p])
    keys = compress(product(range(n), repeat=4), keep)
    return from_entries(n, {key: p * (den // q)
                            for key, (p, q) in zip(keys, pq) if p}, den)
