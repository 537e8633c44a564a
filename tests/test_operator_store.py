"""An operator is its nonzero entries over one denominator.

`ybcore.LinOp2` keeps `entries`, {(p, q, i, j): nonzero numerator of
e_p(x)e_q in R(e_i(x)e_j)}, over one positive `den`.  Builders write
through `from_entries`, `LinOp2(n, mat)` reads a dense Mat, and `.mat` is
the dense view.  On seeded random operators with n <= 4, about half the
entries zero and denominators up to 6: both constructors give the same
operator and the same dense view, equality is by value whatever the
denominator, the operator file round-trips, and the rank test `invertible`
agrees with the dense inverse, a third of the cases forced singular.
"""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ybforge.exactla import mat_from_rows, mat_inverse
from ybforge.ybcore import (LinOp2, from_entries, invertible,
                            linop2_from_json, linop2_to_json)

SEEDED = settings(derandomize=True, max_examples=60, deadline=None,
                  database=None)

ENTRY = st.one_of(st.just(Fraction(0)),
                  st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


@st.composite
def operators(draw):
    """(n, rows, singular): the n^2 x n^2 rational rows of an operator; when
    singular, the last row repeats the first (is zero for n = 1)."""
    n = draw(st.integers(1, 4))
    nn = n * n
    flat = draw(st.lists(ENTRY, min_size=nn * nn, max_size=nn * nn))
    rows = [flat[k:k + nn] for k in range(0, nn * nn, nn)]
    singular = draw(st.integers(0, 2)) == 0
    if singular:
        rows[-1] = list(rows[0]) if nn > 1 else [Fraction(0)]
    return n, rows, singular


def from_rows(n, rows, den):
    """from_entries over den, the entries read straight off the rows."""
    return from_entries(n, {(a // n, a % n, b // n, b % n): int(x * den)
                            for a, row in enumerate(rows)
                            for b, x in enumerate(row) if x}, den)


@SEEDED
@given(operators())
def test_both_constructors_agree_and_give_back_the_dense_form(case):
    n, rows, _singular = case
    mat = mat_from_rows(rows)
    r, s = LinOp2(n, mat), from_rows(n, rows, mat.den)
    assert (r.n, r.den, r.entries) == (s.n, s.den, s.entries)
    assert 0 not in r.entries.values()
    assert r == s and r.mat == s.mat == mat


@SEEDED
@given(operators())
def test_an_operator_equals_itself_over_three_times_its_denominator(case):
    n, rows, _singular = case
    r = LinOp2(n, mat_from_rows(rows))
    r3 = from_entries(n, {key: 3 * x for key, x in r.entries.items()},
                      3 * r.den)
    assert r == r3 and r3 == r
    assert r3.mat.den == 3 * r.den and r3.mat.to_rows() == rows
    if r.entries:
        key = min(r.entries)
        bumped = dict(r3.entries)
        bumped[key] += 1
        assert r != from_entries(n, bumped, r3.den)
        del bumped[key]
        assert r != from_entries(n, bumped, r3.den)


@SEEDED
@given(operators())
def test_operator_files_round_trip(case):
    n, rows, _singular = case
    r = from_rows(n, rows, 60)
    assert linop2_from_json(linop2_to_json(r)) == r


@SEEDED
@given(operators())
def test_the_rank_test_agrees_with_the_dense_inverse(case):
    n, rows, singular = case
    r = LinOp2(n, mat_from_rows(rows))
    assert invertible(r) == (mat_inverse(r.mat) is not None)
    if singular:
        assert not invertible(r)
