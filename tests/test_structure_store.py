"""A structure is its nonzero constants over one denominator.

`AlgebraSpec`, `CoalgebraSpec`, `SuperLieSpec` and `ColorLieSpec` keep
`num`, {k: nonzero numerator} per index pair (i, j) of their dense table,
over one positive `den`, the lcm of the table's denominators.  The
constructors take a dense table; `dualize`, `dualize_co`,
`SuperLieSpec.as_colorlie` and `constructions._adjoin_unit` write the store
from the one they hold, and the tables `c`, `b` and `d` are read-only views
built on first read.  The reference below is the dense reader the package
used before: every entry parsed into a `Fraction` table, then brought to
integers over `common_den`.  On seeded random tables with n <= 4, zero
rows and zero planes: the store is the reference and the view the input
table, the four builders parse nothing and give what the constructors give
on the transposed or extended table, equality is by the constants, and no
spec holds a view it was not asked for.
"""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybforge import constructions, registry, structures
from ybforge.constructions import _adjoin_unit
from ybforge.exactla import common_den, to_rat
from ybforge.structures import (AlgebraSpec, CoalgebraSpec, ColorLieSpec,
                                SuperLieSpec, dualize, dualize_co,
                                structure_from_json, structure_to_json)

SEEDED = settings(derandomize=True, max_examples=60, deadline=None,
                  database=None)
VIEWS = {AlgebraSpec: ("c",), CoalgebraSpec: ("d",),
         SuperLieSpec: ("b", "c"), ColorLieSpec: ("b", "c")}
Z2_THETA = {((a,), (b,)): Fraction(-1 if a and b else 1)
            for a in (0, 1) for b in (0, 1)}


# ---------- the dense reader the store replaced ----------

def reference_table(table, n, what):
    def sized(seq):
        if not isinstance(seq, (list, tuple)) or len(seq) != n:
            raise ValueError("%s table must be %d^3" % (what, n))
        return seq

    return [[[to_rat(x) for x in sized(row)] for row in sized(plane)]
            for plane in sized(table)]


def reference_store(table):
    """(num, den): num[i][j] = {k: numerator of table[i][j][k] over den}."""
    flat, den = common_den([x for plane in table for row in plane for x in row])
    n = len(table)
    rows = [{k: x for k, x in enumerate(flat[r:r + n]) if x}
            for r in range(0, len(flat), n)]
    return [rows[i:i + n] for i in range(0, n * n, n)], den


def ordered(num):
    """num with each row's keys in their order, so that two stores compare
    equal only if they list their constants alike."""
    return [[list(row.items()) for row in plane] for plane in num]


# ---------- strategies ----------

rats = st.one_of(st.just(Fraction(0)),
                 st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)))


@st.composite
def entries(draw):
    """A rational as a Fraction, an int or a string, as a caller may give it."""
    x = draw(rats)
    form = draw(st.sampled_from(["fraction", "int", "str"]))
    if form == "str":
        return str(x)
    return int(x) if form == "int" and x.denominator == 1 else x


@st.composite
def tables(draw, n, allowed=lambda i, j, k: True):
    """A dense n^3 table, nonzero only where allowed; about a fifth of the
    planes and a third of the remaining rows are zero."""
    table = []
    for i in range(n):
        zero_plane = draw(st.integers(0, 4)) == 0
        plane = []
        for j in range(n):
            zero = zero_plane or draw(st.integers(0, 2)) == 0
            plane.append([draw(entries()) if not zero and allowed(i, j, k)
                          else 0 for k in range(n)])
        table.append(plane)
    return table


def basis(n):
    return ["e%d" % i for i in range(n)]


@st.composite
def gradings(draw, n, moduli):
    return [tuple(draw(st.integers(0, m - 1)) for m in moduli)
            for _ in range(n)]


@st.composite
def specs(draw):
    """(spec, its dense table) for one of the four kinds, n <= 4."""
    kind = draw(st.sampled_from(list(VIEWS)))
    n = draw(st.integers(1, 4))
    if kind in (AlgebraSpec, CoalgebraSpec):
        table = draw(tables(n))
        if kind is CoalgebraSpec:
            return CoalgebraSpec(basis(n), table), table
        unit = draw(st.none() | st.lists(rats, min_size=n, max_size=n))
        return AlgebraSpec(basis(n), table, unit), table
    moduli = [2] if kind is SuperLieSpec else draw(
        st.lists(st.integers(1, 3), min_size=1, max_size=2))
    grading = draw(gradings(n, moduli))

    def allowed(i, j, k):
        return all((a + b - c) % m == 0
                   for a, b, c, m in zip(grading[i], grading[j], grading[k],
                                         moduli))

    table = draw(tables(n, allowed))
    if kind is SuperLieSpec:
        return SuperLieSpec(basis(n), [g for g, in grading], table), table
    theta = {(a, b): Fraction(draw(st.sampled_from([1, -1, 2, -3])),
                              draw(st.integers(1, 3)))
             for a, b in itertools.product(
                 itertools.product(*(range(m) for m in moduli)), repeat=2)}
    return ColorLieSpec(basis(n), moduli, grading, theta, table), table


def transposed(table, back=False):
    """d[k][i][j] = c[i][j][k], or with back c[i][j][k] = d[k][i][j]."""
    r = range(len(table))
    if back:
        return [[[table[k][i][j] for k in r] for j in r] for i in r]
    return [[[table[i][j][k] for j in r] for i in r] for k in r]


def extended(table):
    """The table of J+ = k.1 (+) J, the unit at index 0."""
    m = len(table) + 1
    e = [[int(k == i) for k in range(m)] for i in range(m)]
    return [e] + [[e[i + 1]] + [[0] + list(row) for row in plane]
                  for i, plane in enumerate(table)]


def bumped(table, at):
    """A copy of table with the entry at `at` raised by one."""
    out = [[list(row) for row in plane] for plane in table]
    i, j, k = at
    out[i][j][k] = to_rat(out[i][j][k]) + 1
    return out


def fractions(table):
    return [[[to_rat(x) for x in row] for row in plane] for plane in table]


def assert_no_view(S):
    held = [name for name in ("b", "c", "d") if name in vars(S)]
    assert held == [], held


def assert_same_store(S, T):
    """S and T agree in everything but how they were built."""
    assert type(S) is type(T)
    assert_no_view(S)
    assert_no_view(T)
    assert (S.n, S.basis, S.den) == (T.n, T.basis, T.den)
    assert ordered(S.num) == ordered(T.num)
    assert {k: v for k, v in vars(S).items() if k not in ("num", "den")} \
        == {k: v for k, v in vars(T).items() if k not in ("num", "den")}
    for name in VIEWS[type(S)]:
        assert getattr(S, name) == getattr(T, name)


def _refuse(*_args, **_kwargs):
    raise AssertionError("a builder parsed a table")


def unparsed(build, *args):
    """build(*args) with every table reader of structures refusing."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_store", "to_rat", "common_den"):
            mp.setattr(structures, name, _refuse)
        for name in ("to_rat", "common_den"):
            mp.setattr(constructions, name, _refuse)
        return build(*args)


# ---------- the store and the views ----------

@SEEDED
@given(specs())
def test_the_store_is_the_reference_and_the_views_the_table(case):
    S, table = case
    n, what = S.n, {AlgebraSpec: "structure", CoalgebraSpec: "comultiplication"
                    }.get(type(S), "bracket")
    num, den = reference_store(reference_table(table, n, what))
    assert ordered(S.num) == ordered(num) and S.den == den
    assert_no_view(S)
    first, *rest = VIEWS[type(S)]
    view = getattr(S, first)
    assert view == fractions(table)
    assert all(type(x) is Fraction for plane in view for row in plane
               for x in row)
    assert vars(S)[first] is view and getattr(S, first) is view
    for name in rest:
        assert getattr(S, name) is view
    for name in VIEWS[type(S)]:
        with pytest.raises(AttributeError):
            setattr(S, name, table)
    assert ordered(S.num) == ordered(num) and S.den == den


@SEEDED
@given(specs())
def test_a_structure_file_round_trips_through_the_store(case):
    S, _table = case
    doc = structure_to_json(S)
    T = structure_from_json(doc)
    assert_no_view(T)
    assert ordered(T.num) == ordered(S.num) and T.den == S.den
    assert structure_to_json(T) == doc


def test_registry_structures_hold_no_view():
    for name in registry.names():
        assert_no_view(registry.build(name))


# ---------- the builders write the store ----------

@SEEDED
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(tables(n), tables(n))),
       st.data())
def test_dualize_and_dualize_co_relabel_the_constants(pair, data):
    c, d = pair
    n = len(c)
    A, C = AlgebraSpec(basis(n), c), CoalgebraSpec(basis(n), d)
    got = unparsed(dualize, A)
    want = CoalgebraSpec(basis(n), transposed(c))
    assert got == want
    assert_same_store(got, want)
    got = unparsed(dualize_co, C)
    want = AlgebraSpec(basis(n), transposed(d, back=True))
    assert got == want
    assert_same_store(got, want)
    assert unparsed(dualize_co, unparsed(dualize, A)) == A
    at = data.draw(st.tuples(*[st.integers(0, n - 1)] * 3))
    assert unparsed(dualize, A) != CoalgebraSpec(basis(n),
                                                 bumped(transposed(c), at))
    assert unparsed(dualize_co, C) != AlgebraSpec(
        basis(n), bumped(transposed(d, back=True), at))


@SEEDED
@given(st.integers(1, 3).flatmap(tables), st.data())
def test_adjoining_a_unit_moves_the_constants_up(c, data):
    n = len(c)
    J = AlgebraSpec(basis(n), c, data.draw(st.none() | st.just([1] * n)))
    got = unparsed(_adjoin_unit, J)
    want = AlgebraSpec(["1"] + basis(n), extended(c),
                       unit=[1] + [0] * n)
    assert got == want
    assert_same_store(got, want)
    assert all(type(x) is Fraction for x in got.unit)
    at = data.draw(st.tuples(*[st.integers(0, n)] * 3))
    assert got != AlgebraSpec(want.basis, bumped(extended(c), at), want.unit)


@SEEDED
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n)),
    st.data())
def test_as_colorlie_shares_the_bracket_constants(grading, data):
    n = len(grading)
    b = data.draw(tables(n, lambda i, j, k:
                         grading[k] == (grading[i] + grading[j]) % 2))
    L = SuperLieSpec(basis(n), grading, b)
    got = unparsed(L.as_colorlie)
    want = ColorLieSpec(basis(n), [2], [(g,) for g in grading], Z2_THETA, b)
    assert got.num is L.num and got.den == L.den
    assert_same_store(got, want)
    assert_no_view(L)
    nonzero = [(i, j, k) for i, plane in enumerate(got.num)
               for j, row in enumerate(plane) for k in row]
    if nonzero:
        other = ColorLieSpec(basis(n), [2], [(g,) for g in grading], Z2_THETA,
                             bumped(b, data.draw(st.sampled_from(nonzero))))
        assert (other.num, other.den) != (got.num, got.den)


def test_builders_leave_the_store_of_their_source_alone():
    for name in ("dual2", "mat2", "sym2jordan", "t21", "theorem22", "gl11"):
        S = registry.build(name)
        before = ordered(S.num), S.den
        if isinstance(S, AlgebraSpec):
            dualize(S)
            constructions._adjoin_unit(S)
        elif isinstance(S, CoalgebraSpec):
            dualize_co(S)
        else:
            S.as_colorlie()
        assert (ordered(S.num), S.den) == before
        assert_no_view(S)
