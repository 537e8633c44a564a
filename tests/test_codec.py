"""One codec between text and integer numerators over one denominator.

`exactla.rat_pair_from_str` is the one grammar of a rational written as a
string, in a file, on the command line and through `to_rat` alike, so an
exponent form is refused everywhere.  `structure_from_json` reads a table
once, straight to its store (`common_den` on the parsed pairs, each
distinct entry text parsed once, the text "0" never), and
`structure_to_json` formats only the nonzero constants of the store.  On
seeded random files of all four kinds, n <= 4, whose entries are written
in non-canonical forms: the store is the constructor's on the `Fraction`
table, its denominator the lcm of the reduced denominators, and the file
written back is byte-identical to what the view-based writer wrote.
"""
import itertools
import json
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybforge import exactla, registry, structures
from ybforge.constructions import r_algebra
from ybforge.exactla import common_den, rat_from_str, to_rat
from ybforge.structures import (AlgebraSpec, CoalgebraSpec, ColorLieSpec,
                                SuperLieSpec, structure_from_json,
                                structure_to_json)

SEEDED = settings(derandomize=True, max_examples=80, deadline=None,
                  database=None)
ZEROS = {"0": 0, "-0": 0, "0/7": 0, "00": 0}
TEXTS = dict(ZEROS, **{"1": 1, "+3": 3, "2/4": Fraction(1, 2),
                       " 1/2": Fraction(1, 2), "-5/6": Fraction(-5, 6),
                       "1.5": Fraction(3, 2), "-12/8": Fraction(-3, 2),
                       "7": 7, "-1": -1, "4/6": Fraction(2, 3)})
NONZERO = sorted(set(TEXTS) - set(ZEROS))


# ---------- one grammar ----------

@pytest.mark.parametrize("build", [
    lambda: to_rat("1e5"),
    lambda: AlgebraSpec(["a"], [[["1e5"]]]),
    lambda: r_algebra(registry.build("dual2"), "1e9", 1, 1),
    lambda: registry.build("split2", "1e5"),
    lambda: common_den(["1", "1E3"]),
], ids=["to_rat", "AlgebraSpec", "r_algebra", "registry", "common_den"])
def test_exponent_forms_are_refused_everywhere(build):
    with pytest.raises(ValueError, match="exponent form"):
        build()


@pytest.mark.parametrize("text", sorted(TEXTS))
def test_to_rat_reads_a_string_as_the_file_reader_does(text):
    assert to_rat(text) == rat_from_str(text) == TEXTS[text]
    assert type(to_rat(text)) is Fraction


def test_common_den_reduces_text_denominators():
    assert common_den(["2/4", "0/7", "-0", "4/6"]) == ([3, 0, 0, 4], 6)
    assert common_den(["0/7"]) == ([0], 1)


def test_common_den_reads_zero_numbers_only_as_to_rat_does():
    assert common_den([0, Fraction(0), "0", Fraction(3, 4), False]) == (
        [0, 0, 0, 3, 0], 4)
    with pytest.raises(TypeError, match="float"):
        common_den([0.0])
    # a file entry must be text, zero or not
    with pytest.raises(TypeError, match="as a string"):
        common_den([0], exactla.rat_pair_from_str)


# ---------- structure files: one reader, one writer ----------

def old_rat_to_str(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (
        x.numerator, x.denominator)


def old_structure_to_json(obj):
    """The writer that formatted every entry of the `Fraction` views."""
    def t3(table):
        return [[[old_rat_to_str(x) for x in row] for row in plane]
                for plane in table]

    head = {"dim": obj.n, "basis": list(obj.basis)}
    if isinstance(obj, AlgebraSpec):
        out = dict(kind="algebra", **head, table=t3(obj.c))
        if obj.unit is not None:
            out["unit"] = [old_rat_to_str(x) for x in obj.unit]
        return out
    if isinstance(obj, CoalgebraSpec):
        return dict(kind="coalgebra", **head, table=t3(obj.d))
    if isinstance(obj, SuperLieSpec):
        return dict(kind="superlie", **head, grading=list(obj.grading),
                    table=t3(obj.b))
    return dict(kind="colorlie", **head, group=list(obj.moduli),
                grading=[list(g) for g in obj.grading],
                theta=[[list(a), list(b), old_rat_to_str(v)]
                       for (a, b), v in sorted(obj.theta.items())],
                table=t3(obj.b))


@st.composite
def structure_files(draw):
    """(file document, the constructor call on its `Fraction` table)."""
    kind = draw(st.sampled_from(["algebra", "coalgebra", "superlie",
                                 "colorlie"]))
    n = draw(st.integers(1, 4))
    basis = ["e%d" % i for i in range(n)]
    moduli = {"superlie": [2], "colorlie": draw(
        st.lists(st.integers(1, 3), min_size=1, max_size=2))}.get(kind, [])
    grading = [[draw(st.integers(0, m - 1)) for m in moduli] for _ in basis]

    def allowed(i, j, k):
        return all((a + b - c) % m == 0 for a, b, c, m
                   in zip(grading[i], grading[j], grading[k], moduli))

    density = draw(st.sampled_from([0, 1, 3]))
    table = [[[draw(st.sampled_from(NONZERO)) if allowed(i, j, k)
               and draw(st.integers(0, 3)) < density
               else draw(st.sampled_from(sorted(ZEROS)))
               for k in range(n)] for j in range(n)] for i in range(n)]
    values = [[[TEXTS[t] for t in row] for row in plane] for plane in table]
    doc = {"kind": kind, "dim": n, "basis": basis, "table": table}
    if kind == "algebra":
        unit = draw(st.none() | st.lists(st.sampled_from(sorted(TEXTS)),
                                         min_size=n, max_size=n))
        if unit is not None:
            doc["unit"] = unit
        return doc, AlgebraSpec(basis, values, unit and
                                [TEXTS[t] for t in unit])
    if kind == "coalgebra":
        return doc, CoalgebraSpec(basis, values)
    if kind == "superlie":
        doc["grading"] = [g for g, in grading]
        return doc, SuperLieSpec(basis, doc["grading"], values)
    elems = list(itertools.product(*(range(m) for m in moduli)))
    theta = [[list(a), list(b), draw(st.sampled_from(NONZERO))]
             for a, b in itertools.product(elems, repeat=2)]
    doc.update(group=moduli, grading=grading, theta=theta)
    return doc, ColorLieSpec(basis, moduli, grading,
                             {(tuple(a), tuple(b)): TEXTS[v]
                              for a, b, v in theta}, values)


def ordered(num):
    return [[list(row.items()) for row in plane] for plane in num]


@SEEDED
@given(structure_files())
def test_a_file_is_read_once_to_the_store_and_written_from_it(case):
    doc, want = case
    parsed = []

    def counted(text):
        parsed.append(text)
        return exactla.rat_pair_from_str(text)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structures, "rat_pair_from_str", counted)
        S = structure_from_json(json.loads(json.dumps(doc)))
    texts = {t for plane in doc["table"] for row in plane for t in row}
    assert len(parsed) == len(set(parsed)) and set(parsed) <= texts - {"0"}
    assert type(S) is type(want)
    assert ordered(S.num) == ordered(want.num) and S.den == want.den
    assert {k: v for k, v in vars(S).items() if k not in ("num", "den")} \
        == {k: v for k, v in vars(want).items() if k not in ("num", "den")}
    if isinstance(S, (AlgebraSpec, CoalgebraSpec)):
        assert S == want
    assert S.den == lcm(*(Fraction(TEXTS[t]).denominator for t in texts))
    written = structure_to_json(S)
    assert json.dumps(written, indent=2) == json.dumps(
        old_structure_to_json(S), indent=2)
    assert structure_from_json(written).num == S.num


# ---------- colour-Lie theta ----------

Z2_THETA = {((a,), (b,)): 1 for a in (0, 1) for b in (0, 1)}


def test_theta_keys_are_reduced_like_the_grading():
    theta = {((a + 2,), (b - 4,)): v for ((a,), (b,)), v in Z2_THETA.items()}
    L = ColorLieSpec(["a"], [2], [(3,)], theta, [[[0]]])
    assert L.theta == Z2_THETA and L.grading == [(1,)]


@pytest.mark.parametrize("theta", [
    {**Z2_THETA, ((2,), (0,)): 1},            # (2, 0) is (0, 0) in Z2
    [*Z2_THETA.items(), (((1,), (1,)), -1)],   # the items of a file
    {**Z2_THETA, ((0, 0), (1,)): 1},          # not in G x G
], ids=["reduced-repeat", "repeat", "outside"])
def test_theta_takes_each_pair_of_the_group_once(theta):
    with pytest.raises(ValueError, match="theta"):
        ColorLieSpec(["a"], [2], [(0,)], theta, [[[0]]])
